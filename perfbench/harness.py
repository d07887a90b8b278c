"""Arithmetic of the benchmark: percentiles, noise-block demand, span
attribution and error accounting.

Everything here is a pure function over plain numbers and span tuples so
it can be tested at toy sizes (``test_harness.py``) without generating a
surface.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10

#: Spans that only wait on or orchestrate the layers below them.  Their
#: self time is not attributed to any layer: it is the remainder
#: ``unattributed_s`` exposes.
CONTAINER_SPANS = frozenset({"jobs.run", "executor.run"})


# -- percentiles ------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> float:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n * (100.0 - p) / 100.0


def tail_percentile(values: Sequence[float], p: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """``percentile(values, p)``, refusing a tail too thin to report."""
    if samples_beyond(len(values), p) < min_beyond:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has fewer than "
            f"{min_beyond} samples beyond it"
        )
    return percentile(values, p)


# -- noise-block demand -----------------------------------------------------

def window_blocks(x0: int, y0: int, nx: int, ny: int,
                  block: int) -> List[Tuple[int, int]]:
    """Block coordinates ``(bx, by)`` a ``BlockNoise.window`` call draws.

    Mirrors the block walk of the noise plane: every block the window
    ``[x0, x0+nx) x [y0, y0+ny)`` overlaps is generated once per call.
    Floor division keeps negative coordinates on the right block.
    """
    if nx <= 0 or ny <= 0:
        return []
    bxs = range(x0 // block, (x0 + nx - 1) // block + 1)
    bys = range(y0 // block, (y0 + ny - 1) // block + 1)
    return [(bx, by) for bx in bxs for by in bys]


class BlockDemand:
    """Noise blocks requested vs distinct, computed from window calls.

    These are *computed* from each call's ``(x0, y0, nx, ny)`` and the
    plane's block edge, not counted inside the generator: they say how
    many block draws the call pattern implies.
    """

    def __init__(self) -> None:
        self.requested = 0
        self.distinct: set = set()

    def add(self, seed: int, block: int, x0: int, y0: int,
            nx: int, ny: int) -> None:
        keys = window_blocks(x0, y0, nx, ny, block)
        self.requested += len(keys)
        self.distinct.update((seed, block, bx, by) for bx, by in keys)

    @property
    def reuse(self) -> float:
        """Requested / distinct: 1.0 means every block is drawn once."""
        return self.requested / len(self.distinct) if self.distinct else 0.0


# -- span attribution -------------------------------------------------------

#: A finished span as ``repro.obs`` records it: (name, start_ns,
#: duration_ns, pid, tid, attrs).
Span = Tuple[str, int, int, int, int, Optional[dict]]


def span_totals(spans: Iterable[Span]) -> Dict[str, float]:
    """``name -> total seconds`` over finished spans."""
    out: Dict[str, float] = {}
    for name, _t0, dur, _pid, _tid, _attrs in spans:
        out[name] = out.get(name, 0.0) + dur / 1e9
    return out


def _innermost_segments(spans: List[Span], t0: int, t1: int
                        ) -> List[Tuple[int, int, str]]:
    """Flatten one thread's nested spans into ``(start, end, innermost)``
    segments clipped to ``[t0, t1]``."""
    events = sorted(spans, key=lambda s: (s[1], -s[2]))
    segs: List[Tuple[int, int, str]] = []
    stack: List[Tuple[int, str]] = []  # (end_ns, name)
    cursor = t0

    def emit(upto: int) -> None:
        nonlocal cursor
        upto = min(upto, t1)
        if stack and upto > cursor:
            segs.append((cursor, upto, stack[-1][1]))
        cursor = max(cursor, upto)

    for name, start, dur, _pid, _tid, _attrs in events:
        while stack and stack[-1][0] <= start:
            emit(stack[-1][0])
            stack.pop()
        emit(start)
        stack.append((start + dur, name))
    while stack:
        emit(stack[-1][0])
        stack.pop()
    return segs


def attribute(spans: Iterable[Span], t0: int, t1: int
              ) -> Tuple[Dict[str, float], float]:
    """Split the wall interval ``[t0, t1]`` between layers.

    At each instant every thread sits in its innermost open span.
    Threads whose innermost span is a layer (not a container) share the
    instant equally; an instant where no thread is in a layer is
    unattributed.  The shares plus the remainder sum to ``t1 - t0``
    exactly, on one thread or many.

    Returns ``(layer -> seconds, unattributed seconds)``.
    """
    by_thread: Dict[Tuple[int, int], List[Span]] = {}
    for s in spans:
        if s[1] + s[2] <= t0 or s[1] >= t1:
            continue
        by_thread.setdefault((s[3], s[4]), []).append(s)
    segs = [_innermost_segments(v, t0, t1) for v in by_thread.values()]
    cuts = sorted({t0, t1} | {c for th in segs for a, b, _ in th
                              for c in (a, b)})
    share: Dict[str, float] = {}
    unattributed = 0.0
    idx = [0] * len(segs)
    for a, b in zip(cuts, cuts[1:]):
        width = (b - a) / 1e9
        names = []
        for i, th in enumerate(segs):
            while idx[i] < len(th) and th[idx[i]][1] <= a:
                idx[i] += 1
            if idx[i] < len(th) and th[idx[i]][0] <= a:
                name = th[idx[i]][2]
                if name not in CONTAINER_SPANS:
                    names.append(name)
        if not names:
            unattributed += width
            continue
        for name in names:
            share[name] = share.get(name, 0.0) + width / len(names)
    return share, unattributed


def queue_delays(items: Iterable[Tuple[int, int]],
                 spans: Sequence[Span]) -> List[float]:
    """Seconds each batched request waited before its group started.

    ``items`` are ``(enqueued_ns, done_ns)`` pairs.  A request belongs
    to the last ``serve.batch`` span that ended before it was handed
    back; its group started with the noise read (``rng.window``) just
    before that span on the same thread, or with the span itself when
    no read was recorded.
    """
    batches = sorted((s for s in spans if s[0] == "serve.batch"),
                     key=lambda s: s[1] + s[2])
    reads = sorted((s for s in spans if s[0] == "rng.window"),
                   key=lambda s: s[1])
    out = []
    for enqueued, done in items:
        owner = None
        for s in batches:
            if s[1] + s[2] <= done:
                owner = s
            else:
                break
        if owner is None:
            continue
        start = owner[1]
        for r in reads:
            if r[1] > owner[1]:
                break
            if r[4] == owner[4] and r[1] >= enqueued:
                start = r[1]
        out.append(max(start - enqueued, 0) / 1e9)
    return out


# -- error accounting -------------------------------------------------------

def run_failures(tiles: int, raised: bool, report_passed: Optional[bool],
                 tile_mismatches: int) -> int:
    """Failed operations (tiles) of one generation run.

    A run that raised, or whose verify report is red, delivered no
    correct surface, so every tile counts as failed; otherwise each
    sampled tile that differs from its one-shot reference fails.
    """
    if raised or report_passed is False:
        return tiles
    return min(tile_mismatches, tiles)


def error_rate(failed: int, attempted: int) -> float:
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted
