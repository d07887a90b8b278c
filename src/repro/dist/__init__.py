"""Multi-host tile sharding: coordinator/worker scale-out.

The engine computes tiles; :mod:`repro.parallel` schedules them across
one host's cores; this package schedules them across *hosts*.  The
design is the smallest thing that is actually a distributed system:

- a length-prefixed JSON/binary socket protocol
  (:mod:`~repro.dist.protocol`) — localhost TCP in the tests, any
  reliable byte stream in production;
- a lease ledger (:mod:`~repro.dist.lease`) granting tiles with
  deadlines over the :class:`~repro.io.store.SurfaceStore` chunk
  bitmap, re-leasing stragglers through the
  :class:`~repro.jobs.retry.RetryPolicy` backoff;
- a coordinator (:mod:`~repro.dist.coordinator`) that owns the ledger
  and merges per-worker obs payloads;
- stateless workers (:mod:`~repro.dist.worker`) that build the
  generator from the run's :class:`~repro.core.spec.GenerationSpec`
  and write straight into the shared store (or ship heights over the
  socket);
- :func:`~repro.dist.executor.generate_dist`, the localhost
  supervisor that runs a spec into a store (``--backend dist`` on
  ``generate`` and ``job run``).

Correctness rests on the same two invariants as every other backend:
tile values are pure functions of ``(recipe, seed, tile)``, and the
store bitmap marks a chunk only after its bytes are written — so
crashes, duplicate leases and restarts can cost throughput, never
bits.
"""

from .coordinator import Coordinator
from .executor import generate_dist
from .lease import Lease, LeaseLedger
from .status import STATUS_SCHEMA, RunTracker
from .worker import run_worker

__all__ = [
    "Coordinator",
    "generate_dist",
    "Lease",
    "LeaseLedger",
    "RunTracker",
    "STATUS_SCHEMA",
    "run_worker",
]
