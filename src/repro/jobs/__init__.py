"""Fault-tolerant, checkpoint/resumable surface-generation jobs.

The robustness layer the ROADMAP's production north-star sits on:
long-running tiled and strip jobs that survive tile failures, crashed
process-pool workers and whole-process restarts, while keeping the
library's determinism contract — a resumed job produces heights
**bit-identical** to an uninterrupted run.

Pieces
------
:class:`RetryPolicy`
    Per-tile retry with deterministic exponential backoff, a run-wide
    failure budget, pool-respawn limits and process → thread → serial
    degradation.
:class:`FaultPlan` / :class:`FaultSpec`
    Deterministic fault injection ("fail tile k on attempt n", kill the
    worker, add latency) for tests and the ``--inject-fault`` CLI flag.
:class:`JobCheckpoint`
    The durable ``repro.jobs/v1`` directory format: a JSON manifest,
    written atomically on status changes, naming the job's
    :class:`~repro.io.store.SurfaceStore` (the caller's, or the
    checkpoint's own ``store/``), whose chunk bitmap records progress.
:func:`run_tiled` / :func:`run_spec` / :func:`resume` / :func:`status`
    The job API, also exposed as ``repro job run/resume/status`` on the
    command line.  A strip job is ``run_tiled`` on :func:`strip_plan`.

Example
-------
>>> from repro import jobs                              # doctest: +SKIP
>>> surface = jobs.run_tiled(gen, noise, plan,
...                          checkpoint="out/job1")     # doctest: +SKIP
>>> # ... the process dies mid-run; later:
>>> surface = jobs.resume("out/job1", gen)              # doctest: +SKIP
"""

from ..parallel.executor import (
    FailureBudgetExceeded,
    PoolRespawnLimit,
    TileFailedError,
)
from ..parallel.tiles import strip_plan
from .checkpoint import FORMAT_VERSION, JobCheckpoint, generator_fingerprint
from .faults import FaultPlan, FaultSpec, InjectedFault
from .retry import RetryPolicy
from .runner import resume, run_spec, run_tiled, status

__all__ = [
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JobCheckpoint",
    "generator_fingerprint",
    "FORMAT_VERSION",
    "run_tiled",
    "run_spec",
    "resume",
    "status",
    "strip_plan",
    "TileFailedError",
    "FailureBudgetExceeded",
    "PoolRespawnLimit",
]
