"""Command-line interface: ``repro-rrs`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Homogeneous surface from spectrum parameters; writes NPZ and/or
    PGM/PPM renders and prints summary statistics.
``figure``
    Regenerate one of the paper's Figures 1-4 at a chosen resolution.
``job``
    Fault-tolerant checkpointed generation: ``job run`` starts a
    tiled/strip job that records progress durably, ``job resume``
    finishes an interrupted one with bit-identical heights, and
    ``job status`` summarises a checkpoint as JSON.
``inspect``
    Print statistics (and optionally an ASCII preview) of a saved
    surface.
``validate``
    Run the paper's DFT(w)~rho accuracy check and variance closure for a
    spectrum/grid combination; ``--full`` gates a seeded ensemble of
    each default family with ``repro.verify``.
``classify``
    Fit all spectral families to a saved surface and report the best
    match (family, h, cl).
``mesh``
    Export a saved surface as a Wavefront OBJ mesh.
``profile1d``
    Generate a 1D rough profile (direct 1D convolution method).
``serve``
    Surface-as-a-service: an asyncio HTTP front door that accepts
    versioned ``GenerationSpec`` documents (POST /v1/jobs), batches
    concurrent small same-spectrum requests onto one engine pass, and
    range-serves big surfaces chunk-by-chunk from a ``SurfaceStore``.
``top``
    Live status view of a running distributed generation or serve
    endpoint: polls a ``/status`` endpoint (or falls back to reading a
    ``SurfaceStore`` bitmap directly) and renders a refreshing
    progress/worker table.

The ``generate``, ``figure`` and ``job run`` subcommands share one
execution-options flag group (``--engine/--tile/--backend/--workers/
--inject-fault``), documented once in ``docs/API.md``.  Each of them,
and ``dist coordinator``, turns its flags into the ``GenerationSpec``
that ``--dump-spec`` prints and runs that document, exactly as
``--spec FILE`` would.

Examples
--------
::

    repro-rrs generate --spectrum gaussian --h 1.0 --cl 40 \\
        --n 512 --domain 1024 --seed 7 --npz out.npz --ppm out.ppm
    repro-rrs figure fig3 --n 512 --ppm fig3.ppm
    repro-rrs job run --checkpoint ck --n 512 --tile 128 \\
        --backend process --cl 40
    repro-rrs job resume ck
    repro-rrs inspect out.npz --preview
    repro-rrs validate --spectrum exponential --h 2 --cl 80 --n 256
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import obs
from ._version import __version__
from .core.convolution import ENGINES
from .core.grid import Grid2D
from .core.spectra import (
    ExponentialSpectrum,
    GaussianSpectrum,
    PowerLawSpectrum,
    Spectrum,
)
from .core.spectra_ext import SelfAffineSpectrum
from .core.surface import Surface
from .figures import FIGURES, figure_surface
from .io.npzio import load_surface, save_surface
from .io.pgm import ascii_preview, render_gray, render_terrain

__all__ = ["main", "build_parser"]

BACKENDS = ("serial", "thread", "process", "dist")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (``--workers``).

    Rejecting zero/negative values at parse time turns what used to be
    a late executor traceback into a one-line usage error.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _spectrum_from_args(args: argparse.Namespace) -> Spectrum:
    if args.spectrum == "self-affine":
        if args.hurst is None:
            raise SystemExit("--spectrum self-affine requires --hurst")
        return SelfAffineSpectrum(sigma=args.h, hurst=args.hurst, qr=args.qr)
    clx = args.clx if args.clx is not None else args.cl
    cly = args.cly if args.cly is not None else args.cl
    if clx is None or cly is None:
        raise SystemExit("specify --cl or both --clx/--cly")
    if args.spectrum == "gaussian":
        return GaussianSpectrum(h=args.h, clx=clx, cly=cly)
    if args.spectrum == "exponential":
        return ExponentialSpectrum(h=args.h, clx=clx, cly=cly)
    if args.spectrum == "power_law":
        return PowerLawSpectrum(h=args.h, clx=clx, cly=cly, order=args.order)
    raise SystemExit(f"unknown spectrum {args.spectrum!r}")


def _add_spectrum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--spectrum",
        choices=("gaussian", "power_law", "exponential", "self-affine"),
        default="gaussian",
        help="spectral family (paper Section 2.1, plus the self-affine "
        "q^(-2-2H) PSD of artificial_surf.m)",
    )
    p.add_argument("--h", type=float, default=1.0,
                   help="height std (sigma/Rq for self-affine)")
    p.add_argument("--cl", type=float, default=None, help="isotropic correlation length")
    p.add_argument("--clx", type=float, default=None, help="x correlation length")
    p.add_argument("--cly", type=float, default=None, help="y correlation length")
    p.add_argument(
        "--order", type=float, default=2.0, help="power-law order N (> 1)"
    )
    p.add_argument(
        "--hurst", type=float, default=None,
        help="Hurst exponent H in (0, 1] (self-affine only)",
    )
    p.add_argument(
        "--qr", type=float, default=None,
        help="roll-off wavevector: PSD plateaus below qr (self-affine only)",
    )


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=512, help="samples per axis")
    p.add_argument(
        "--domain", type=float, default=1024.0, help="physical side length"
    )


def _execution_parent() -> argparse.ArgumentParser:
    """Shared ``--engine/--tile/--backend/--workers/--inject-fault``
    flag group used by ``generate``, ``figure`` and ``job run``
    (see the Execution options section of ``docs/API.md``)."""
    parent = argparse.ArgumentParser(add_help=False)
    x = parent.add_argument_group("execution options")
    x.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="convolution engine: auto picks spatial for small kernels "
        "and the plan-cached overlap-save FFT otherwise",
    )
    x.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="engine working precision: float32 halves FFT memory "
             "traffic at single-precision accuracy (see the conformance "
             "tier for which statistics are float32-safe)",
    )
    x.add_argument(
        "--tile", type=int, default=None,
        help="generate tile-by-tile over the unbounded noise plane "
             "(tile edge in samples; non-periodic windowed surface)",
    )
    x.add_argument(
        "--backend", choices=BACKENDS,
        default="serial",
        help="tiled execution backend (with --tile): thread shares "
             "memory, process uses persistent shared-memory workers, "
             "dist runs lease-scheduled worker processes over a socket "
             "(requires --store)",
    )
    x.add_argument(
        "--workers", type=_positive_int, default=None,
        help="pool size for the parallel backends (default: cores - 1; "
             "dist backend: 2)",
    )
    x.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="deterministic fault injection for resilience testing: "
             '"tile=K[,attempt=N][,kind=raise|kill|delay][,delay=S]" '
             "(repeatable; requires --tile)",
    )
    return parent


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--npz", default=None, help="write surface NPZ")
    p.add_argument("--pgm", default=None, help="write grayscale PGM")
    p.add_argument("--ppm", default=None, help="write terrain PPM")
    p.add_argument("--preview", action="store_true", help="ASCII preview")


def _fault_plan_from_args(args: argparse.Namespace):
    specs = getattr(args, "inject_fault", None)
    if not specs:
        return None
    from .jobs import FaultPlan

    try:
        return FaultPlan.parse(specs)
    except ValueError as exc:
        raise SystemExit(f"--inject-fault: {exc}")


def _load_spec(path: str):
    """Read a ``repro.spec/v1`` document for ``--spec`` flags."""
    from .core.spec import GenerationSpec, SpecError

    try:
        return GenerationSpec.from_json(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"--spec: {exc}")
    except (SpecError, ValueError) as exc:
        raise SystemExit(f"--spec: {exc}")


def _recipe_from_args(args: argparse.Namespace,
                      figure: Optional[str] = None) -> dict:
    """The generator recipe a flag-built command describes: the paper
    figure ``figure``'s layout, or else a homogeneous convolution over
    the spectrum flags."""
    if figure is not None:
        return {"kind": "figure", "name": figure, "n": args.n,
                "domain": args.domain, "truncation": 0.999,
                "engine": args.engine, "dtype": args.dtype}
    return {
        "kind": "convolution",
        "spectrum": _spectrum_from_args(args).to_dict(),
        "grid": {"nx": args.n, "ny": args.n,
                 "lx": args.domain, "ly": args.domain},
        "truncation": args.truncation,
        "engine": args.engine,
        "dtype": args.dtype,
    }


def _spec_from_args(args: argparse.Namespace, recipe: dict):
    """The :class:`GenerationSpec` equivalent of a flag-built command.

    This is what ``--dump-spec`` prints and what the command then runs:
    one JSON document that reproduces the exact same surface through
    ``generate --spec``, ``job run --spec``, the dist backend, or a
    served POST.  ``--tile`` plans square tiles; ``--mode strips``
    plans full-height strips ``--tile`` samples wide
    (:func:`repro.parallel.tiles.strip_plan`).
    """
    from .core.spec import GenerationSpec, SpecError

    plan = None
    if args.tile is not None:
        strips = getattr(args, "mode", "tiled") == "strips"
        plan = {"total_nx": args.n, "total_ny": args.n,
                "tile_nx": args.tile,
                "tile_ny": args.n if strips else args.tile,
                "origin_x": 0, "origin_y": 0}
    fault_plan = _fault_plan_from_args(args)
    if fault_plan is not None and plan is None:
        raise SystemExit("--inject-fault requires --tile")
    store = getattr(args, "store", None)
    try:
        return GenerationSpec(
            generator=recipe,
            seed=args.seed,
            plan=plan,
            store_path=str(Path(store).resolve()) if store else None,
            faults=fault_plan.to_dicts() if fault_plan is not None else [],
        )
    except SpecError as exc:
        raise SystemExit(str(exc))


def _command_spec(args: argparse.Namespace, figure: Optional[str] = None):
    """The spec ``generate``/``job run`` executes: the ``--spec``
    document (``--store`` and ``--inject-fault`` win over its own), or
    else the ``--dump-spec`` document of the command's flags."""
    if args.spec and args.dump_spec:
        raise SystemExit("--spec and --dump-spec are mutually exclusive")
    if not args.spec:
        return _spec_from_args(args, _recipe_from_args(args, figure))
    spec = _load_spec(args.spec)
    if args.store:
        spec = dataclasses.replace(
            spec, store_path=str(Path(args.store).resolve()))
    fault_plan = _fault_plan_from_args(args)
    if fault_plan is not None:
        spec = dataclasses.replace(spec, faults=fault_plan.to_dicts())
    return spec


def _emit_surface(surface: Surface, args: argparse.Namespace) -> None:
    if obs.enabled():
        # Saved alongside the surface so ``inspect --timings`` can render
        # the run's counters long after the process is gone.
        surface.provenance["obs_metrics"] = (
            obs.get_recorder().metrics.as_dict()
        )
    store_info = surface.provenance.get("store")
    if store_info:
        # Out-of-core result: computing the usual summary statistics
        # would page the entire file through RAM, so report the store
        # record instead (npz/pgm/preview below remain opt-in scans).
        print(json.dumps({"shape": list(surface.shape), **store_info},
                         indent=2))
    else:
        print(json.dumps(surface.summary(), indent=2))
    if args.npz:
        save_surface(args.npz, surface)
        print(f"wrote {args.npz}")
    if args.pgm:
        render_gray(surface, path=args.pgm)
        print(f"wrote {args.pgm}")
    if args.ppm:
        render_terrain(surface, path=args.ppm)
        print(f"wrote {args.ppm}")
    if args.preview:
        print(ascii_preview(surface))


def _generate_from_spec(args: argparse.Namespace, spec) -> int:
    """Run ``spec`` for ``generate`` and ``figure --tile``.

    Without a plan this is the one-shot periodic path; with one, the
    tiled path over the unbounded noise plane, into the spec's store
    when it names one.  Only ``--backend/--workers/--heartbeat/
    --status-port`` and the output flags act beside the spec, and they
    cannot change the heights.
    """
    telemetry = {}
    if getattr(args, "heartbeat", None) is not None:
        telemetry["heartbeat_s"] = args.heartbeat
    if getattr(args, "status_port", None) is not None:
        telemetry["status_port"] = args.status_port
    if telemetry and args.backend != "dist":
        raise SystemExit(
            "--heartbeat/--status-port require --backend dist "
            "(single-host backends have no coordinator to serve them)"
        )
    if args.backend == "dist" and not (spec.plan and spec.store_path):
        raise SystemExit(
            "--backend dist requires --tile and --store: the store's "
            "chunk bitmap is the distributed completion ledger"
        )
    if spec.plan is None and (spec.store_path or spec.faults):
        raise SystemExit("--store and --inject-fault require --tile")
    gen = spec.build_generator()
    recipe = spec.generator
    provenance = {"seed": spec.seed, "spec": spec.to_dict()}
    if "spectrum" in recipe:
        provenance["spectrum"] = recipe["spectrum"]
    if recipe["kind"] == "figure":
        provenance["figure"] = recipe["name"]
    if spec.plan is None:
        surface = Surface(
            heights=np.asarray(gen.generate(seed=spec.seed)), grid=gen.grid,
            provenance={"method": recipe["kind"],
                        "engine": recipe.get("engine", "auto"),
                        "dtype": recipe.get("dtype", "float64"),
                        **provenance},
        )
        _emit_surface(surface, args)
        return 0
    store = None
    if spec.store_path:
        try:
            store = spec.create_store()
        except (FileExistsError, ValueError) as exc:
            raise SystemExit(f"--store: {exc}")
    if args.backend == "dist":
        from .dist.executor import generate_dist

        surface = generate_dist(spec, store, workers=args.workers or 2,
                                **telemetry)
    else:
        from .jobs import FaultPlan, RetryPolicy
        from .parallel.executor import generate_tiled

        faults = FaultPlan.from_dicts(spec.faults) if spec.faults else None
        surface = generate_tiled(
            gen, spec.noise(), spec.tile_plan(),
            backend=args.backend, workers=args.workers, out=store,
            retry=RetryPolicy() if faults else None, fault_plan=faults,
        )
    surface.provenance.update(provenance)
    _emit_surface(surface, args)
    if store is not None:
        store.close()
        print(f"wrote store {store.path}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _command_spec(args)
    if args.dump_spec:
        print(spec.to_json(indent=2))
        return 0
    return _generate_from_spec(args, spec)


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.backend == "dist":
        raise SystemExit(
            "--backend dist is not supported by `figure` (no --store "
            "target); use `job run --figure ... --store ... --backend "
            "dist` instead"
        )
    spec = _spec_from_args(args, _recipe_from_args(args, args.name))
    if spec.plan is not None:
        return _generate_from_spec(args, spec)
    surface = figure_surface(
        args.name, n=args.n, domain=args.domain, seed=args.seed,
        engine=args.engine, dtype=args.dtype,
    )
    _emit_surface(surface, args)
    return 0


def _retry_policy_from_args(args: argparse.Namespace):
    from .jobs import RetryPolicy

    try:
        return RetryPolicy(
            max_attempts=args.max_attempts,
            backoff_base=args.backoff_base,
            failure_budget=args.failure_budget,
            max_respawns=args.max_respawns,
            degrade=not args.no_degrade,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _job_failed(exc: Exception, checkpoint: str) -> "SystemExit":
    return SystemExit(
        f"job failed: {exc}\ncheckpoint preserved at {checkpoint}; "
        f"finish it with: repro-rrs job resume {checkpoint}"
    )


#: Exit code of ``verify`` / ``job run --verify`` when no metric had a
#: target (no spectrum to gate against): not a FAIL (1), not a PASS.
EXIT_NOT_GATED = 3


def _verify_exit_code(report) -> int:
    """0 PASS, 1 FAIL, :data:`EXIT_NOT_GATED` when nothing was gated."""
    if all(m.passed is None for m in report.metrics):
        return EXIT_NOT_GATED
    return 0 if report.passed else 1


def _print_verify_outcome(doc) -> int:
    """Summarise a ``repro.verify/v1`` document; return its exit code."""
    from .verify import VerifyReport

    if not doc:
        raise SystemExit("verify: no report produced")
    return _print_verify_report(VerifyReport.from_dict(doc))


def _print_verify_report(report) -> int:
    """Print the metric table and verdict; return the exit code."""
    for m in report.metrics:
        state = {True: "pass", False: "FAIL", None: "info"}[m.passed]
        meas = "-" if m.measured is None else f"{m.measured:.6g}"
        targ = "-" if m.target is None else f"{m.target:.6g}"
        tol = "-" if m.tolerance is None else f"{m.tolerance:.3g}"
        print(f"  {m.name:<14} {state:<4} measured={meas:<12} "
              f"target={targ:<12} tol={tol}")
    rc = _verify_exit_code(report)
    print("verify: " + {0: "PASS", 1: "FAIL",
                        EXIT_NOT_GATED: "NOT GATED (no target spectrum; "
                                        "give --spec)"}[rc])
    return rc


def _cmd_job_run(args: argparse.Namespace) -> int:
    from .core.spec import SpecError
    from .jobs import (FailureBudgetExceeded, PoolRespawnLimit,
                       TileFailedError, run_spec)
    from .jobs.checkpoint import check_new

    if args.spec and args.mode != "tiled":
        raise SystemExit("--spec only supports tiled mode (the plan in "
                         "the document is a tile plan)")
    if not args.spec and args.tile is None:
        raise SystemExit(
            "job run requires a positive --tile (tile edge for tiled "
            "mode, strip width for strips mode)"
        )
    spec = _command_spec(args, args.figure)
    if args.dump_spec:
        print(spec.to_json(indent=2))
        return 0
    retry = _retry_policy_from_args(args)
    store = None
    try:
        check_new(args.checkpoint)  # before the store: no orphan on refusal
        if spec.store_path:
            store = spec.create_store()
        surface = run_spec(
            spec,
            checkpoint=args.checkpoint,
            backend=args.backend,
            workers=args.workers,
            retry=retry,
            store=store,
            verify=args.verify,
        )
    except SpecError as exc:
        raise SystemExit(f"--spec: {exc}")
    except FileExistsError as exc:
        raise SystemExit(str(exc))
    except (TileFailedError, FailureBudgetExceeded, PoolRespawnLimit) as exc:
        if store is not None:
            store.close()  # persist what the writer durably completed
        raise _job_failed(exc, args.checkpoint)
    surface.provenance["seed"] = spec.seed
    _emit_surface(surface, args)
    rc = (_print_verify_outcome(surface.provenance.get("verify"))
          if args.verify else 0)
    if store is not None:
        store.close()
        print(f"wrote store {store.path}")
    return rc


def _cmd_job_resume(args: argparse.Namespace) -> int:
    from .jobs import (FailureBudgetExceeded, PoolRespawnLimit,
                       TileFailedError, resume)

    try:
        surface = resume(
            args.checkpoint,
            backend=args.backend,
            workers=args.workers,
            fault_plan=_fault_plan_from_args(args),
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    except (TileFailedError, FailureBudgetExceeded, PoolRespawnLimit) as exc:
        raise _job_failed(exc, args.checkpoint)
    _emit_surface(surface, args)
    return 0


def _cmd_job_status(args: argparse.Namespace) -> int:
    from .jobs import status

    try:
        print(json.dumps(status(args.checkpoint), indent=2))
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    return 0


def _cmd_dist_coordinator(args: argparse.Namespace) -> int:
    """Serve one distributed run: lease tiles to connecting workers.

    Prints the bound address on the first line (machine-parsable:
    ``dist coordinator listening on HOST:PORT``) so launcher scripts
    can point workers at an OS-assigned port, then blocks until the
    run completes and prints the run summary as JSON.  Re-running on an
    existing store resumes off its bitmap.
    """
    from .dist import Coordinator
    from .io.store import SurfaceStore
    from .jobs import (FailureBudgetExceeded, PoolRespawnLimit,
                       TileFailedError)

    spec = dataclasses.replace(
        _spec_from_args(args, _recipe_from_args(args, args.figure)),
        access="shared", obs=obs.enabled(),
    )
    plan = spec.tile_plan()
    if (Path(spec.store_path) / "manifest.json").exists():
        # resume off the bitmap, if the store holds this run
        store = SurfaceStore.open(spec.store_path, "r+")
    else:
        store = spec.create_store()
    try:
        coordinator = Coordinator(
            spec, plan, store,
            policy=_retry_policy_from_args(args),
            lease_timeout_s=args.lease_timeout,
            n_shards=args.workers or 2,
            host=args.host, port=args.port,
            persist_every=args.persist_every,
            run_id=args.run_id,
            heartbeat_s=args.heartbeat,
            status_port=args.status_port,
        )
    except ValueError as exc:  # e.g. the store holds another run
        raise SystemExit(f"dist coordinator: {exc}")
    host, port = coordinator.start()
    print(f"dist coordinator listening on {host}:{port}", flush=True)
    status_addr = coordinator.status_address
    if status_addr is not None:
        print(f"dist status on {status_addr[0]}:{status_addr[1]} "
              f"(/metrics /status /health)", flush=True)
    try:
        summary = coordinator.serve()
    except (TileFailedError, FailureBudgetExceeded, PoolRespawnLimit) as exc:
        store.close()
        raise SystemExit(
            f"distributed run failed: {exc}\nstore preserved at "
            f"{store.path}; re-run the coordinator to resume off its "
            f"bitmap"
        )
    store.close()
    print(json.dumps({"store": store.progress_summary(), **summary},
                     indent=2))
    return 0


def _format_eta(seconds) -> str:
    if seconds is None:
        return "--"
    seconds = float(seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _render_status(doc: dict) -> str:
    """Render one ``repro.obs.status/v1`` document as a text table."""
    tiles = doc.get("tiles", {})
    total = tiles.get("total", 0)
    done = tiles.get("done", 0)
    lines = [
        f"run {doc.get('run_id') or '-'}  state {doc.get('state', '?')}  "
        f"elapsed {_format_eta(doc.get('elapsed_s'))}",
    ]
    rate = doc.get("throughput_tiles_per_s")
    lines.append(
        f"tiles {done}/{total} ({100.0 * doc.get('progress', 0.0):.1f}%)  "
        f"leased {tiles.get('leased') if tiles.get('leased') is not None else '-'}  "
        f"throughput {rate if rate is not None else '--'} tiles/s  "
        f"eta {_format_eta(doc.get('eta_s'))}"
    )
    lease = doc.get("lease") or {}
    if lease:
        lines.append(
            "lease: granted {granted} completed {completed} "
            "dup {duplicates} expired {expired} releases "
            "{worker_releases} failures {failures}".format(
                **{k: lease.get(k, 0)
                   for k in ("granted", "completed", "duplicates",
                             "expired", "worker_releases", "failures")}
            )
        )
    workers = doc.get("workers") or []
    if workers:
        lines.append("")
        lines.append(f"{'WORKER':<8}{'STATE':<7}{'TILE':>6}{'DONE':>6}"
                     f"{'BUSY_S':>9}{'UTIL':>7}{'AGE_S':>8}")
        for w in workers:
            tile = w.get("tile")
            lines.append(
                f"{w.get('name', '?'):<8}{w.get('state', '?'):<7}"
                f"{tile if tile is not None else '-':>6}"
                f"{w.get('tiles_done', 0):>6}"
                f"{w.get('busy_s', 0.0):>9.2f}"
                f"{100.0 * w.get('utilization', 0.0):>6.0f}%"
                f"{w.get('last_seen_age_s', 0.0):>8.1f}"
            )
    serve = doc.get("serve") or {}
    if serve:
        jobs = serve.get("jobs") or {}
        lines.append(
            "jobs: " + "  ".join(
                f"{state} {jobs.get(state, 0)}"
                for state in ("queued", "running", "complete", "failed")
            )
        )
        tenants = serve.get("tenants") or {}
        if tenants:
            lines.append("")
            lines.append(f"{'TENANT':<16}{'JOBS':>6}{'INFLIGHT':>10}")
            for name in sorted(tenants):
                t = tenants[name]
                lines.append(f"{name:<16}{t.get('jobs', 0):>6}"
                             f"{t.get('inflight', 0):>10}")
    return "\n".join(lines)


def _status_from_store(store) -> dict:
    """A reduced status document read straight off a store bitmap.

    The fallback view for runs with no status server (or after the
    coordinator exited): the bitmap is the durable completion ledger,
    so done/total/progress are exact; everything live (workers,
    throughput, ETA) is simply absent.
    """
    from .dist.status import STATUS_SCHEMA

    store.refresh_done()
    progress = store.progress_summary()
    total = int(progress["chunks_total"])
    done = int(progress["chunks_done"])
    return {
        "schema": STATUS_SCHEMA,
        "run_id": None,
        "state": "complete" if done >= total else "running",
        "source": "store",
        "tiles": {"total": total, "done": done,
                  "pending": total - done, "leased": None},
        "progress": (done / total) if total else 1.0,
        "throughput_tiles_per_s": None,
        "eta_s": None,
        "elapsed_s": None,
        "lease": {},
        "workers": [],
    }


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll ``/status`` (or a store bitmap) and render a live table."""
    import time as _time
    import urllib.error
    import urllib.request

    if bool(args.connect) == bool(args.store):
        raise SystemExit("top requires exactly one of --connect or --store")

    if args.connect:
        url = f"http://{args.connect}/status"

        def fetch() -> dict:
            with urllib.request.urlopen(url, timeout=5.0) as resp:
                return json.loads(resp.read())

        def cleanup() -> None:
            pass
    else:
        from .io.store import SurfaceStore

        try:
            store = SurfaceStore.open(args.store, "r", ledger=False)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"--store: {exc}")

        def fetch() -> dict:
            return _status_from_store(store)

        def cleanup() -> None:
            store.close()

    polled_ok = False
    try:
        while True:
            try:
                doc = fetch()
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                if polled_ok:
                    print("status endpoint gone (run finished?)")
                    return 0
                raise SystemExit(f"cannot reach {args.connect}: {exc}")
            polled_ok = True
            body = (json.dumps(doc, indent=2) if args.json
                    else _render_status(doc))
            if not args.once:
                print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
            print(body, flush=True)
            if args.once or doc.get("state") in ("complete", "failed"):
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        cleanup()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the surface-as-a-service front door until interrupted.

    Prints the bound address on the first line (machine-parsable:
    ``serve listening on HOST:PORT``) so launchers and tests can use an
    OS-assigned port.  ``repro-rrs top --connect HOST:PORT`` works
    against it directly — ``/status`` speaks the same schema as a dist
    coordinator.
    """
    import asyncio

    from .serve import ServeConfig, ServeServer, SurfaceService

    config = ServeConfig(
        data_dir=Path(args.data_dir),
        tenant_max_active=args.tenant_max_active,
        tenant_max_queued=args.tenant_max_queued,
        retry_after_s=args.retry_after,
        batch_linger_s=args.batch_linger,
        batch_max=args.batch_max,
        workers=args.job_workers,
        backend=args.backend,
        inner_workers=args.workers,
    )
    service = SurfaceService(config)

    async def run() -> None:
        server = ServeServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serve listening on {server.host}:{server.port}", flush=True)
        print("POST /v1/jobs; GET /v1/jobs/{id}[/status|/chunks/N|/heights"
              "|/result]; /status /metrics /health", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    """Serve a coordinator until its run completes (or aborts)."""
    from .dist.worker import run_worker
    from .jobs.faults import mark_killable

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        )
    if not host:
        raise SystemExit(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        )
    # a dist worker is expendable by design; let injected kill faults
    # crash it for real so fault drills exercise the re-lease path
    mark_killable()
    try:
        summary = run_worker(host, port, max_tiles=args.max_tiles)
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"dist worker: {exc}")
    print(json.dumps(summary, indent=2))
    return 0 if not summary["reason"].startswith("abort") else 3


def _cmd_inspect(args: argparse.Namespace) -> int:
    surface = load_surface(args.path)
    info = {
        "shape": list(surface.shape),
        "dx": surface.grid.dx,
        "dy": surface.grid.dy,
        "origin": list(surface.origin),
        "provenance": surface.provenance,
        "summary": surface.summary(),
    }
    print(json.dumps(info, indent=2))
    if args.timings:
        from .obs import provenance_timings

        print(provenance_timings(surface.provenance))
    if args.preview:
        print(ascii_preview(surface))
    return 0


#: ``validate --full`` families and ensemble: one spectrum per analytic
#: form, each gated on this many seeded realisations.
VALIDATION_SPECTRA = {
    "gaussian": GaussianSpectrum(h=1.0, clx=20.0, cly=20.0),
    "power_law_2": PowerLawSpectrum(h=1.5, clx=25.0, cly=25.0, order=2.0),
    "exponential": ExponentialSpectrum(h=2.0, clx=15.0, cly=15.0),
}
VALIDATION_REALISATIONS = 16
VALIDATION_SEED = 2009


def _cmd_validate(args: argparse.Namespace) -> int:
    from .verify import (VerifyConfig, variance_closure, verify_heights,
                         weight_acf_error)

    grid = Grid2D(nx=args.n, ny=args.n, lx=args.domain, ly=args.domain)
    if args.full:
        from .core.convolution import convolve_full

        # One Welch window per realisation: the ensemble already does
        # the averaging that segmenting a single surface would, and the
        # full-width window keeps taper leakage off steep spectra.
        config = VerifyConfig(segment=args.n - args.n % 2)
        passed = True
        for name, spectrum in VALIDATION_SPECTRA.items():
            ensemble = [convolve_full(spectrum, grid, seed=VALIDATION_SEED + i)
                        for i in range(VALIDATION_REALISATIONS)]
            try:
                report = verify_heights(ensemble, spectrum, dx=grid.dx,
                                        dy=grid.dy, config=config)
            except ValueError as exc:
                raise SystemExit(f"validate: {exc}")
            print(f"{name}: {VALIDATION_REALISATIONS} realisations of "
                  f"{grid.nx}x{grid.ny} over {grid.lx:g}x{grid.ly:g}")
            _print_verify_report(report)
            passed = passed and report.passed
        return 0 if passed else 1
    spectrum = _spectrum_from_args(args)
    report = weight_acf_error(spectrum, grid)
    closure = variance_closure(spectrum, grid)
    out = dict(report.as_dict(), variance_closure_rel_error=closure)
    print(json.dumps(out, indent=2))
    # generous sanity bound: discretisation error below 5% of variance
    ok = report.max_abs_error <= 0.05 * max(spectrum.variance, 1e-30)
    if not ok:
        print(
            "WARNING: DFT(w) deviates from rho by more than 5% of the "
            "variance; enlarge the domain or refine the grid",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify <store|job>``: gate a surface against its spectrum."""
    from .io.store import StoreCorrupt
    from .verify import (REPORT_NAME, VerifyConfig, VerifyError, verify_job,
                         verify_store, write_report)

    target = Path(args.target)
    manifest_path = target / "manifest.json"
    if not manifest_path.is_file():
        raise SystemExit(f"verify: no manifest.json under {target}")
    try:
        fmt = json.loads(manifest_path.read_text()).get("format")
    except (OSError, ValueError) as exc:
        raise SystemExit(f"verify: unreadable manifest: {exc}")

    spectrum = None
    if args.spec:
        spectrum = _load_spec(args.spec).spectrum
        if spectrum is None:
            raise SystemExit("verify: --spec document carries no spectrum")

    config = VerifyConfig(segment=args.segment, psd_bins=args.psd_bins,
                          n_sigma=args.n_sigma)
    try:
        if fmt == "repro.store/v1":
            report = verify_store(target, spectrum, config=config)
        elif fmt == "repro.jobs/v1":
            report = verify_job(target, spectrum=spectrum, config=config)
            write_report(report, target / REPORT_NAME)
        else:
            raise SystemExit(
                f"verify: {target} is neither a repro.store/v1 store nor a "
                f"repro.jobs/v1 checkpoint (format={fmt!r})"
            )
    except (VerifyError, StoreCorrupt, FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"verify: {exc}")
    if args.output:
        write_report(report, args.output)
    if args.json:
        print(report.to_json())
        return _verify_exit_code(report)
    return _print_verify_report(report)


def _cmd_classify(args: argparse.Namespace) -> int:
    from .stats.fitting import classify_family

    surface = load_surface(args.path)
    best, fits = classify_family(
        surface.heights, surface.grid.dx, cl_guess=args.cl_guess
    )
    out = {
        "best": {
            "family": best.kind,
            "h": best.h,
            "cl": best.cl,
            "order": best.order,
            "rss": best.rss,
        },
        "all": {k: {"h": f.h, "cl": f.cl, "rss": f.rss}
                for k, f in fits.items()},
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    from .io.objmesh import save_obj

    surface = load_surface(args.path)
    save_obj(args.out, surface, decimate=args.decimate,
             z_scale=args.z_scale)
    print(f"wrote {args.out}")
    return 0


def _cmd_profile1d(args: argparse.Namespace) -> int:
    from .core.oned import (
        Exponential1D,
        Gaussian1D,
        Matern1D,
        ProfileGenerator,
    )

    cl = args.cl if args.cl is not None else 25.0
    if args.spectrum == "gaussian":
        spec = Gaussian1D(h=args.h, cl=cl)
    elif args.spectrum == "exponential":
        spec = Exponential1D(h=args.h, cl=cl)
    else:
        spec = Matern1D(h=args.h, cl=cl, order=args.order)
    gen = ProfileGenerator(spec, args.n, args.domain)
    profile = gen.generate(seed=args.seed)
    summary = {
        "n": args.n,
        "dx": args.domain / args.n,
        "std": float(profile.std()),
        "min": float(profile.min()),
        "max": float(profile.max()),
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        np.savetxt(args.out, np.column_stack(
            [np.arange(args.n) * (args.domain / args.n),
             np.asarray(profile)]
        ), header="x height")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro-rrs",
        description="Inhomogeneous random rough surface generation "
        "(Uchida, Honda & Yoon convolution method)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write run counters/gauges/histograms as JSON "
             "(enables tracing for this run)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write spans in Chrome trace-event JSON, loadable in "
             "chrome://tracing or Perfetto (enables tracing)",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="append structured JSONL events (run lifecycle, worker "
             "joins/leaves, tile completions/failures) to PATH",
    )
    parser.add_argument(
        "--events-level", choices=("debug", "info", "warn", "error"),
        default="info",
        help="minimum severity recorded by --events-out (default info; "
             "debug includes per-tile lease/complete events)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()

    g = sub.add_parser("generate", parents=[execution],
                       help="homogeneous surface")
    _add_spectrum_args(g)
    _add_grid_args(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--truncation", type=float, default=0.9999)
    g.add_argument(
        "--store", default=None, metavar="DIR",
        help="write heights into an out-of-core SurfaceStore directory "
             "(chunked npy + bitmap; requires --tile; peak RSS stays "
             "O(tile), independent of --n)",
    )
    g.add_argument(
        "--heartbeat", type=float, default=None, metavar="S",
        help="dist backend: workers heartbeat the coordinator every S "
             "seconds (progress counters + live metric deltas)",
    )
    g.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="dist backend: serve /metrics (Prometheus), /status "
             "(JSON) and /health on this port (0 = OS-assigned)",
    )
    g.add_argument(
        "--spec", default=None, metavar="FILE",
        help="run a repro.spec/v1 GenerationSpec JSON document; "
             "spectrum/grid/seed/--tile flags are ignored (--store and "
             "--inject-fault override the document's)",
    )
    g.add_argument(
        "--dump-spec", action="store_true",
        help="print this command line as a GenerationSpec JSON document "
             "and exit without generating (feed it back via --spec, "
             "`job run --spec`, or POST it to a serve endpoint)",
    )
    _add_output_args(g)
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("figure", parents=[execution],
                       help="regenerate a paper figure")
    f.add_argument("name", choices=FIGURES)
    _add_grid_args(f)
    f.add_argument("--seed", type=int, default=2009)
    _add_output_args(f)
    f.set_defaults(func=_cmd_figure)

    j = sub.add_parser(
        "job", help="fault-tolerant checkpointed generation jobs"
    )
    jsub = j.add_subparsers(dest="job_command", required=True)

    jr = jsub.add_parser(
        "run", parents=[execution],
        help="start a checkpointed tiled/strip job",
    )
    _add_spectrum_args(jr)
    _add_grid_args(jr)
    jr.add_argument("--seed", type=int, default=0)
    jr.add_argument("--truncation", type=float, default=0.9999)
    jr.add_argument(
        "--figure", choices=FIGURES, default=None,
        help="run a paper-figure layout instead of a homogeneous spectrum",
    )
    jr.add_argument(
        "--checkpoint", required=True, metavar="DIR",
        help="checkpoint directory (created; must not already hold a job)",
    )
    jr.add_argument(
        "--store", default=None, metavar="DIR",
        help="stream heights into an out-of-core SurfaceStore at DIR "
             "(default: the checkpoint's own store/, read back into RAM "
             "when the job completes); resume skips the chunks its "
             "bitmap has durably recorded",
    )
    jr.add_argument(
        "--mode", choices=("tiled", "strips"), default="tiled",
        help="tiled: square tiles; strips: full-height strips covering "
             "the same windows as stream_strips",
    )
    jr.add_argument(
        "--verify", action="store_true",
        help="after generation, stream a repro.verify pass gating the "
             "surface against its requested spectrum; the report is "
             "checkpointed as verify.json and a red gate exits non-zero",
    )
    jr.add_argument("--max-attempts", type=int, default=3,
                    help="per-tile attempt limit")
    jr.add_argument("--backoff-base", type=float, default=0.05,
                    help="first retry delay in seconds (doubles per retry)")
    jr.add_argument("--failure-budget", type=int, default=None,
                    help="abort after this many tile failures overall")
    jr.add_argument("--max-respawns", type=int, default=2,
                    help="process-pool respawns before degrading")
    jr.add_argument(
        "--no-degrade", action="store_true",
        help="fail instead of degrading process->thread->serial when "
             "the worker pool keeps breaking",
    )
    jr.add_argument(
        "--spec", default=None, metavar="FILE",
        help="run a repro.spec/v1 GenerationSpec JSON document (must "
             "carry a plan); spectrum/grid/seed/--tile flags are ignored "
             "(--store and --inject-fault override the document's)",
    )
    jr.add_argument(
        "--dump-spec", action="store_true",
        help="print this command line as a GenerationSpec JSON document "
             "and exit without running the job",
    )
    _add_output_args(jr)
    jr.set_defaults(func=_cmd_job_run)

    jz = jsub.add_parser(
        "resume",
        help="finish a checkpointed job (heights are bit-identical to "
             "an uninterrupted run)",
    )
    jz.add_argument("checkpoint", metavar="CKPT")
    jz.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="override the recorded backend (cannot change the values)",
    )
    jz.add_argument("--workers", type=_positive_int, default=None)
    jz.add_argument("--inject-fault", action="append", default=None,
                    metavar="SPEC")
    _add_output_args(jz)
    jz.set_defaults(func=_cmd_job_resume)

    js = jsub.add_parser("status", help="summarise a checkpoint as JSON")
    js.add_argument("checkpoint", metavar="CKPT")
    js.set_defaults(func=_cmd_job_status)

    d = sub.add_parser(
        "dist",
        help="multi-host tile sharding: lease-scheduled coordinator "
             "and workers over a socket",
    )
    dsub = d.add_subparsers(dest="dist_command", required=True)

    dc = dsub.add_parser(
        "coordinator",
        help="serve one run: lease tiles to connecting workers, own "
             "the store bitmap ledger",
    )
    _add_spectrum_args(dc)
    _add_grid_args(dc)
    dc.add_argument("--seed", type=int, default=0)
    dc.add_argument("--truncation", type=float, default=0.9999)
    dc.add_argument(
        "--figure", choices=FIGURES, default=None,
        help="run a paper-figure layout instead of a homogeneous spectrum",
    )
    dc.add_argument("--engine", choices=ENGINES, default="auto")
    dc.add_argument("--dtype", choices=("float64", "float32"),
                    default="float64")
    dc.add_argument(
        "--tile", type=_positive_int, required=True,
        help="tile edge in samples (also the store chunk edge)",
    )
    dc.add_argument(
        "--store", required=True, metavar="DIR",
        help="SurfaceStore directory; created if absent, resumed off "
             "its bitmap if already present",
    )
    dc.add_argument("--host", default="127.0.0.1",
                    help="interface to listen on")
    dc.add_argument(
        "--port", type=int, default=0,
        help="port to listen on (0 = OS-assigned; the bound port is "
             "printed on the first output line)",
    )
    dc.add_argument(
        "--workers", type=_positive_int, default=None,
        help="expected worker count — sets the shard fan-out for "
             "locality, not a limit on connections (default: 2)",
    )
    dc.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="S",
        help="seconds before an unacknowledged lease is re-offered",
    )
    dc.add_argument(
        "--persist-every", type=_positive_int, default=8, metavar="K",
        help="flush bitmap/manifest every K completed tiles",
    )
    dc.add_argument("--max-attempts", type=int, default=3,
                    help="per-tile attempt limit")
    dc.add_argument("--backoff-base", type=float, default=0.05,
                    help="first retry delay in seconds (doubles per retry)")
    dc.add_argument("--failure-budget", type=int, default=None,
                    help="abort after this many tile failures overall")
    dc.add_argument("--max-respawns", type=int, default=2)
    dc.add_argument("--no-degrade", action="store_true")
    dc.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="fault plan shipped to every worker in the run spec "
             '("tile=K[,attempt=N][,kind=raise|kill|delay][,delay=S]"; '
             "kill faults really do kill dist workers)",
    )
    dc.add_argument(
        "--run-id", default=None, metavar="ID",
        help="run identifier stamped into events and /status "
             "(default: generated)",
    )
    dc.add_argument(
        "--heartbeat", type=float, default=None, metavar="S",
        help="advertise a worker heartbeat interval of S seconds "
             "(enables live per-worker status and staleness detection)",
    )
    dc.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text), /status (JSON, schema "
             "repro.obs.status/v1) and /health on this port "
             "(0 = OS-assigned; the bound address is printed at start)",
    )
    dc.set_defaults(func=_cmd_dist_coordinator)

    dw = dsub.add_parser(
        "worker",
        help="connect to a coordinator and compute leased tiles until "
             "the run completes",
    )
    dw.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address as printed by `dist coordinator`",
    )
    dw.add_argument(
        "--max-tiles", type=_positive_int, default=None,
        help="exit after this many tiles (load-shedding / test hook)",
    )
    dw.set_defaults(func=_cmd_dist_worker)

    sv = sub.add_parser(
        "serve",
        help="surface-as-a-service: async HTTP front door accepting "
             "GenerationSpec documents",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="interface to listen on")
    sv.add_argument(
        "--port", type=int, default=0,
        help="port to listen on (0 = OS-assigned; the bound address is "
             "printed on the first output line)",
    )
    sv.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="root for per-job checkpoints and auto-assigned stores",
    )
    sv.add_argument(
        "--tenant-max-active", type=_positive_int, default=2,
        help="concurrently executing jobs per tenant (X-Tenant header)",
    )
    sv.add_argument(
        "--tenant-max-queued", type=int, default=8,
        help="additionally queued jobs per tenant before submissions "
             "get 429 + Retry-After",
    )
    sv.add_argument(
        "--retry-after", type=float, default=1.0, metavar="S",
        help="backoff advertised in the Retry-After header on 429",
    )
    sv.add_argument(
        "--batch-linger", type=float, default=0.005, metavar="S",
        help="window for piling concurrent small same-spectrum requests "
             "onto one batched engine pass",
    )
    sv.add_argument(
        "--batch-max", type=_positive_int, default=64,
        help="largest single batched engine pass",
    )
    sv.add_argument(
        "--job-workers", type=_positive_int, default=2,
        help="thread-pool size for big (checkpointed) jobs",
    )
    sv.add_argument(
        "--backend", choices=("serial", "thread", "process"),
        default="serial",
        help="inner execution backend for big jobs",
    )
    sv.add_argument(
        "--workers", type=_positive_int, default=None,
        help="inner pool size for the thread/process big-job backends",
    )
    sv.set_defaults(func=_cmd_serve)

    t = sub.add_parser(
        "top",
        help="live status view of a running distributed generation",
    )
    t.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="a status address: a dist coordinator's (as printed by "
             "`dist coordinator --status-port`) or a serve endpoint's "
             "(as printed by `serve`) — both speak repro.obs.status/v1",
    )
    t.add_argument(
        "--store", default=None, metavar="DIR",
        help="read progress straight off a SurfaceStore bitmap instead "
             "(works without a status server, but shows no worker rows)",
    )
    t.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period in seconds (default 1.0)",
    )
    t.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (no screen clearing)",
    )
    t.add_argument(
        "--json", action="store_true",
        help="emit the raw status document instead of the table",
    )
    t.set_defaults(func=_cmd_top)

    i = sub.add_parser("inspect", help="inspect a saved surface")
    i.add_argument("path")
    i.add_argument("--preview", action="store_true")
    i.add_argument(
        "--timings", action="store_true",
        help="render the saved provenance/metrics as a timing summary",
    )
    i.set_defaults(func=_cmd_inspect)

    v = sub.add_parser("validate", help="DFT(w) ~ rho accuracy check")
    _add_spectrum_args(v)
    _add_grid_args(v)
    v.add_argument("--full", action="store_true",
                   help="gate a seeded ensemble of each default family "
                        "with repro.verify (ignores the spectrum flags)")
    v.set_defaults(func=_cmd_validate)

    vf = sub.add_parser(
        "verify",
        help="gate a generated store or job against its requested "
             "spectrum (streaming, out-of-core)",
    )
    vf.add_argument("target", metavar="STORE_OR_CKPT",
                    help="a repro.store/v1 directory or a repro.jobs/v1 "
                         "checkpoint directory")
    vf.add_argument("--spec", default=None, metavar="FILE",
                    help="repro.spec/v1 document supplying the target "
                         "spectrum (overrides the recorded recipe)")
    vf.add_argument("--segment", type=int, default=None,
                    help="Welch segment edge (default: auto, 256 max)")
    vf.add_argument("--psd-bins", type=int, default=48,
                    help="radial PSD bins")
    vf.add_argument("--n-sigma", type=float, default=4.0,
                    help="gate width in ensemble standard deviations")
    vf.add_argument("--output", default=None, metavar="FILE",
                    help="also write the report JSON here")
    vf.add_argument("--json", action="store_true",
                    help="print the full repro.verify/v1 document")
    vf.set_defaults(func=_cmd_verify)

    c = sub.add_parser("classify", help="fit spectral families to a surface")
    c.add_argument("path")
    c.add_argument("--cl-guess", type=float, default=25.0)
    c.set_defaults(func=_cmd_classify)

    m = sub.add_parser("mesh", help="export a surface as an OBJ mesh")
    m.add_argument("path")
    m.add_argument("out")
    m.add_argument("--decimate", type=int, default=1)
    m.add_argument("--z-scale", type=float, default=1.0)
    m.set_defaults(func=_cmd_mesh)

    p1 = sub.add_parser("profile1d", help="generate a 1D rough profile")
    p1.add_argument(
        "--spectrum",
        choices=("gaussian", "exponential", "matern"),
        default="gaussian",
    )
    p1.add_argument("--h", type=float, default=1.0)
    p1.add_argument("--cl", type=float, default=None)
    p1.add_argument("--order", type=float, default=2.0)
    p1.add_argument("--n", type=int, default=4096)
    p1.add_argument("--domain", type=float, default=4096.0)
    p1.add_argument("--seed", type=int, default=0)
    p1.add_argument("--out", default=None, help="write x/height text table")
    p1.set_defaults(func=_cmd_profile1d)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    ``--metrics-out`` / ``--trace-out`` turn on tracing for the whole
    command; ``--events-out`` streams the structured JSONL event log.
    Without any of them the observability layer stays a no-op and the
    outputs are bit-identical.
    """
    import contextlib

    parser = build_parser()
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.events_out:
            stack.enter_context(obs.event_logging(
                args.events_out, level=args.events_level,
            ))
            obs.event("cli.start", command=args.command)
        if not (args.metrics_out or args.trace_out):
            code = args.func(args)
        else:
            with obs.recording() as rec:
                with obs.trace("cli." + args.command):
                    code = args.func(args)
                if args.metrics_out:
                    obs.write_metrics_json(args.metrics_out, rec)
                    print(f"wrote {args.metrics_out}", file=sys.stderr)
                if args.trace_out:
                    obs.write_chrome_trace(
                        args.trace_out, rec,
                        metadata={"command": args.command},
                    )
                    print(f"wrote {args.trace_out}", file=sys.stderr)
        if args.events_out:
            obs.event("cli.finish", command=args.command, code=code)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
