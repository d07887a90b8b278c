"""Lease-based tile scheduling over the store's completion bitmap.

The :class:`LeaseLedger` is the coordinator's whole scheduling brain,
factored out of any socket code so its state machine is unit-testable
with a fake clock.  Per tile index it tracks one of four states::

            grant                    complete
    PENDING ------> LEASED ---------------------> DONE (bitmap bit set)
       ^              | deadline passed / worker
       |              | lost / failure reported
       +--------------+
         (backoff via RetryPolicy.delay)

The *bitmap is the ledger*: ``done`` is the live
:attr:`repro.io.store.SurfaceStore.done` array, so completion marks are
exactly the marks the store persists, a restarted coordinator rebuilds
PENDING as the bitmap's complement (:meth:`SurfaceStore.pending_indices`),
and a chunk can never be both "needs work" and "trust the bytes on
disk".  Duplicate completions — a straggler finishing after its lease
was re-granted — are accepted idempotently (tile values are pure
functions of ``(generator recipe, seed, tile)``, so both writers wrote
the same bytes) and counted, never double-marked.

Failure semantics deliberately mirror the single-host executor's
retry policy (:func:`repro.parallel.executor.generate_tiled` with a
``RetryPolicy``): *reported*
tile failures count toward ``RetryPolicy.max_attempts`` and the
run-wide ``failure_budget``; re-leases caused by a lost worker or an
expired deadline bump the attempt number and back off via
``RetryPolicy.delay`` but do **not** count as failures — a crashed
worker says nothing about the tile, exactly like a pool respawn's
requeues.

Shard affinity: tiles are pre-partitioned into contiguous shards
(:meth:`repro.parallel.tiles.TilePlan.shards`); each worker drains its
home shard first and steals from the fullest other shard when idle, so
static locality degrades gracefully into dynamic balancing — the
classic work-stealing compromise, here with the coordinator as the
single arbiter so no lease can be granted twice concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..jobs.retry import RetryPolicy
from ..parallel.executor import FailureBudgetExceeded, TileFailedError
from ..parallel.tiles import Tile

__all__ = ["LeaseLedger", "Lease"]

#: Bounds for the "come back later" hint handed to idle workers.  The
#: upper bound is also how late an idle worker learns that the last
#: leased tile completed the run, which delays the coordinator's
#: orderly shutdown by as much.
_MIN_WAIT_S = 0.05
_MAX_WAIT_S = 0.1


@dataclass
class Lease:
    """One outstanding grant: ``worker`` owns tile ``index`` until
    ``deadline`` (coordinator clock)."""

    index: int
    worker: str
    attempt: int
    deadline: float


class LeaseLedger:
    """Scheduler state for one distributed run (single-threaded; the
    coordinator serialises access under its own lock).

    Parameters
    ----------
    done:
        The live chunk bitmap (shared with the store).  Pre-set bits —
        a resumed run — are simply never queued.
    tiles:
        Row-major tiles, index-aligned with ``done``.
    policy:
        Retry/backoff knobs; ``None`` uses the defaults.
    lease_timeout_s:
        Grant lifetime.  Must comfortably exceed the slowest tile or
        healthy workers get speculatively double-scheduled.
    shards:
        Tile-index partition for worker affinity (defaults to one
        shard, i.e. a plain global queue).
    """

    def __init__(
        self,
        done: np.ndarray,
        tiles: Sequence[Tile],
        *,
        policy: Optional[RetryPolicy] = None,
        lease_timeout_s: float = 30.0,
        shards: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        if len(done) != len(tiles):
            raise ValueError(
                f"bitmap has {len(done)} bits for {len(tiles)} tiles"
            )
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.done = done
        self.tiles = list(tiles)
        self.policy = policy if policy is not None else RetryPolicy()
        self.lease_timeout_s = float(lease_timeout_s)
        if shards is None:
            shards = [list(range(len(tiles)))]
        covered = sorted(i for shard in shards for i in shard)
        if covered != list(range(len(tiles))):
            raise ValueError("shards must cover every tile index exactly once")
        self._queues: List[Deque[int]] = [
            deque(i for i in shard if not done[i]) for shard in shards
        ]
        self._home: Dict[int, int] = {
            i: ord_ for ord_, shard in enumerate(shards) for i in shard
        }
        self.leases: Dict[int, Lease] = {}
        self.attempts: Dict[int, int] = {}   # grants per tile (1-based)
        self.failures: Dict[int, int] = {}   # reported failures per tile
        self.expiries: Dict[int, int] = {}   # deadline/lost-worker re-leases
        self.not_before: Dict[int, float] = {}
        self.completions: Dict[int, int] = {}  # reports per tile (dup audit)
        # run counters (the obs/provenance view)
        self.granted = 0
        self.completed = 0
        self.duplicates = 0
        self.expired = 0
        self.worker_releases = 0
        self.total_failures = 0

    # -- queries -----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._queues)

    def shard_for(self, worker_ord: int) -> int:
        """Home shard of the ``worker_ord``-th worker to connect."""
        return worker_ord % self.n_shards

    def all_done(self) -> bool:
        return bool(self.done.all())

    def pending_count(self) -> int:
        """Tiles not yet marked done (leased or queued)."""
        return int(len(self.done) - self.done.sum())

    # -- the state machine -------------------------------------------------
    def expire(self, now: float) -> List[int]:
        """Return expired leases to their queues; returns the indices.

        An expiry is a *re-lease*, not a failure: the straggler may
        still finish (its late report is then a counted duplicate), so
        the tile goes back with the next attempt number and a
        deterministic backoff.
        """
        out = []
        for idx, lease in list(self.leases.items()):
            if lease.deadline <= now:
                del self.leases[idx]
                self._relapse(idx, now)
                self.expired += 1
                out.append(idx)
        return out

    def release_worker(self, worker: str, now: float) -> List[int]:
        """Expire every lease held by a vanished worker immediately."""
        out = []
        for idx, lease in list(self.leases.items()):
            if lease.worker == worker:
                del self.leases[idx]
                self._relapse(idx, now)
                self.worker_releases += 1
                out.append(idx)
        return out

    def _relapse(self, idx: int, now: float) -> None:
        if self.done[idx]:
            return  # completed while leased elsewhere; nothing to requeue
        count = self.expiries.get(idx, 0) + 1
        self.expiries[idx] = count
        self.not_before[idx] = now + self.policy.delay(count)
        self._queues[self._home[idx]].append(idx)

    def request(self, worker: str, shard: int, now: float
                ) -> Tuple[str, Any]:
        """One worker's ask for work.

        Returns one of::

            ("grant", Lease)       — compute this tile
            ("wait", seconds)      — nothing grantable yet, come back
            ("complete", None)     — every tile is done, shut down
        """
        self.expire(now)
        if self.all_done():
            return ("complete", None)
        wake: Optional[float] = None
        order = [shard % self.n_shards] + sorted(
            (o for o in range(self.n_shards) if o != shard % self.n_shards),
            key=lambda o: -len(self._queues[o]),
        )
        for ord_ in order:
            q = self._queues[ord_]
            for _ in range(len(q)):
                idx = q.popleft()
                if self.done[idx]:
                    continue  # pre-filled or raced duplicate; drop
                nb = self.not_before.get(idx, 0.0)
                if nb > now:
                    q.append(idx)  # backing off; rotate past it
                    wake = nb if wake is None else min(wake, nb)
                    continue
                attempt = self.attempts.get(idx, 0) + 1
                self.attempts[idx] = attempt
                lease = Lease(index=idx, worker=worker, attempt=attempt,
                              deadline=now + self.lease_timeout_s)
                self.leases[idx] = lease
                self.granted += 1
                return ("grant", lease)
        if wake is None and self.leases:
            # everything pending is leased out; poll around the earliest
            # deadline so stragglers re-lease promptly
            wake = min(l.deadline for l in self.leases.values())
        seconds = _MIN_WAIT_S if wake is None else wake - now
        return ("wait", float(min(max(seconds, _MIN_WAIT_S), _MAX_WAIT_S)))

    def complete(self, idx: int, worker: str, now: float) -> bool:
        """Record a completion report; ``True`` iff it was the first.

        First completion sets the bitmap bit — the durable "this
        chunk's bytes are trustworthy" mark.  Later reports for the
        same tile (stragglers racing a re-lease) are counted and
        ignored; their writes were bit-identical by construction.
        """
        idx = int(idx)
        if not 0 <= idx < len(self.tiles):
            raise ValueError(f"tile index {idx} outside the plan")
        self.completions[idx] = self.completions.get(idx, 0) + 1
        lease = self.leases.get(idx)
        if lease is not None and lease.worker == worker:
            del self.leases[idx]
        if self.done[idx]:
            self.duplicates += 1
            return False
        self.done[idx] = True
        self.completed += 1
        return True

    def fail(self, idx: int, worker: str, error: str, now: float) -> None:
        """Record a *reported* tile failure (the tile computed and
        raised — not a lost worker).

        Counts toward ``max_attempts`` and the run-wide failure budget
        with semantics identical to the resilient executor's
        ``_record_failure``; otherwise requeues the tile behind the
        deterministic backoff.
        """
        idx = int(idx)
        lease = self.leases.get(idx)
        if lease is not None and lease.worker == worker:
            del self.leases[idx]
        if self.done[idx]:
            return  # a duplicate lease already completed it; moot
        count = self.failures.get(idx, 0) + 1
        self.failures[idx] = count
        self.total_failures += 1
        budget = self.policy.failure_budget
        cause = RuntimeError(error)
        if budget is not None and self.total_failures > budget:
            raise FailureBudgetExceeded(
                f"{self.total_failures} failed tile attempts exceed the "
                f"failure budget of {budget}"
            )
        if count >= self.policy.max_attempts:
            raise TileFailedError(idx, self.tiles[idx], count, cause)
        self.not_before[idx] = now + self.policy.delay(count)
        self._queues[self._home[idx]].append(idx)

    # -- accounting --------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Run counters for provenance / obs."""
        return {
            "granted": self.granted,
            "completed": self.completed,
            "duplicates": self.duplicates,
            "expired": self.expired,
            "worker_releases": self.worker_releases,
            "failures": self.total_failures,
            "pending": self.pending_count(),
        }
