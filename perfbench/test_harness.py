"""Toy-size tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- percentiles --------------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0, 10, 50, 90, 100):
        assert harness.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(100)), 90.0) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(99)), 90.0)
    assert harness.tail_percentile(list(range(20)), 50.0) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(19)), 50.0)


# -- noise-block demand --------------------------------------------------------

def _brute_blocks(x0, y0, nx, ny, block):
    return {(x // block, y // block)
            for x in range(x0, x0 + nx) for y in range(y0, y0 + ny)}


@pytest.mark.parametrize("block", [1, 3, 8, 16])
def test_window_blocks_match_brute_force(block):
    rng = np.random.default_rng(block)
    for _ in range(200):
        x0, y0 = (int(v) for v in rng.integers(-40, 40, 2))
        nx, ny = (int(v) for v in rng.integers(0, 30, 2))
        got = harness.window_blocks(x0, y0, nx, ny, block)
        assert len(got) == len(set(got))
        assert set(got) == _brute_blocks(x0, y0, nx, ny, block)


def test_block_demand_counts_reuse_across_windows():
    # four 20x20 halo windows of 10x10 tiles on 8-sample blocks, as a
    # 2x2 tiled run with a 5-sample halo would request them
    demand = harness.BlockDemand()
    brute_requested, brute_distinct = 0, set()
    for tx in range(2):
        for ty in range(2):
            x0, y0 = 10 * tx - 5, 10 * ty - 5
            demand.add(7, 8, x0, y0, 20, 20)
            keys = _brute_blocks(x0, y0, 20, 20, 8)
            brute_requested += len(keys)
            brute_distinct |= keys
    assert demand.requested == brute_requested
    assert len(demand.distinct) == len(brute_distinct)
    assert demand.reuse == brute_requested / len(brute_distinct) > 1.0
    # another seed's blocks are distinct draws
    demand.add(8, 8, -5, -5, 20, 20)
    assert len(demand.distinct) == len(brute_distinct) + 9


# -- span attribution ----------------------------------------------------------

def _span(name, start, end, tid=1):
    return (name, start, end - start, 100, tid, None)


def test_self_times_and_unattributed_remainder_one_thread():
    spans = [
        _span("jobs.run", 0, 100),
        _span("executor.tile", 10, 60),
        _span("rng.window", 15, 35),
        _span("engine.apply", 35, 55),
        _span("engine.fft.forward", 40, 50),
        _span("verify.run", 70, 90),
    ]
    share, rest = harness.attribute(spans, 0, 100)
    assert share == pytest.approx({
        "executor.tile": 10e-9, "rng.window": 20e-9,
        "engine.apply": 10e-9, "engine.fft.forward": 10e-9,
        "verify.run": 20e-9,
    })
    # container self time (0-10, 60-70, 90-100) is the remainder
    assert rest == pytest.approx(30e-9)
    assert sum(share.values()) + rest == pytest.approx(100e-9)


def test_threads_share_instants_and_idle_is_unattributed():
    spans = [
        _span("executor.run", 0, 100, tid=1),  # main thread waits
        _span("rng.window", 0, 50, tid=2),
        _span("engine.apply", 25, 75, tid=3),
    ]
    share, rest = harness.attribute(spans, 0, 100)
    assert share["rng.window"] == pytest.approx(37.5e-9)
    assert share["engine.apply"] == pytest.approx(37.5e-9)
    assert rest == pytest.approx(25e-9)


def test_spans_outside_the_window_are_clipped():
    spans = [_span("rng.window", -50, 30), _span("blend", 90, 150)]
    share, rest = harness.attribute(spans, 0, 100)
    assert share == pytest.approx({"rng.window": 30e-9, "blend": 10e-9})
    assert rest == pytest.approx(60e-9)


def test_queue_delay_runs_to_the_group_noise_read():
    spans = [
        _span("rng.window", 110, 130, tid=9),
        _span("serve.batch", 130, 200, tid=9),
        _span("rng.window", 210, 220, tid=9),
        _span("serve.batch", 220, 260, tid=9),
    ]
    items = [(100, 205), (105, 206), (200, 270)]
    got = harness.queue_delays(items, spans)
    assert got == pytest.approx([10e-9, 5e-9, 10e-9])


# -- error accounting ----------------------------------------------------------

def test_error_rate_arithmetic():
    assert harness.run_failures(64, False, True, 0) == 0
    assert harness.run_failures(64, False, None, 1) == 1
    assert harness.run_failures(64, False, False, 0) == 64
    assert harness.run_failures(64, True, None, 0) == 64
    assert harness.error_rate(1, 4 * 64) == pytest.approx(1 / 256)
    with pytest.raises(ValueError):
        harness.error_rate(0, 0)


class _ToyGeneration(workloads._Generation):
    """A 128^2 surface in 32^2 tiles: the generation check at toy size."""

    tiles = 16

    def spec(self, noise_seed):
        from repro.core.spec import GenerationSpec

        return GenerationSpec(
            generator={
                "kind": "convolution",
                "spectrum": {"kind": "gaussian", "h": 1.0,
                             "clx": 4.0, "cly": 4.0},
                "grid": {"nx": 64, "ny": 64, "lx": 64.0, "ly": 64.0},
                "truncation": [8, 8],
            },
            seed=noise_seed,
            plan={"total_nx": 128, "total_ny": 128,
                  "tile_nx": 32, "tile_ny": 32},
        )


def test_forced_bad_tile_counts_toward_error_rate(monkeypatch):
    from repro.parallel import generate_tiled

    monkeypatch.setattr(workloads, "TILE", 32)
    toy = _ToyGeneration(seed=3, work=HERE)
    toy.reference = toy.spec(0).build_generator()
    spec = toy.spec(5)
    surface = generate_tiled(spec.build_generator(), spec.noise(),
                             spec.tile_plan())
    assert toy.mismatches(surface, 5, 0, toy.check_tiles) == 0
    surface.heights[:, :] += 1e-12  # every tile off by one rounding step
    bad = toy.mismatches(surface, 5, 0, toy.check_tiles)
    assert bad == toy.check_tiles
    failed = harness.run_failures(toy.tiles, False, None, bad)
    assert harness.error_rate(failed, toy.tiles) == pytest.approx(
        toy.check_tiles / toy.tiles)


def test_forced_red_verify_report_fails_every_tile():
    from repro.core.spectra import GaussianSpectrum
    from repro.verify import verify_heights

    white = np.random.default_rng(0).standard_normal((256, 256))
    report = verify_heights(white, GaussianSpectrum(h=1.0, clx=16.0,
                                                    cly=16.0))
    assert report.passed is False
    failed = harness.run_failures(64, False, report.passed, 0)
    assert harness.error_rate(failed, 64) == 1.0


# -- the benchmark's declared metrics -----------------------------------------

def test_benchmark_json_declares_what_the_runs_print():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [
        n for n, _u in workloads.END_TO_END]
    assert [m["name"] for m in doc["per_layer"]] == [
        n for n, _u in workloads.PER_LAYER]
    units = dict(workloads.END_TO_END + workloads.PER_LAYER)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["unit"] == units[m["name"]]
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(run.WORKLOAD_NAMES)
    assert names == [*workloads.GENERATION, workloads.SERVE]
