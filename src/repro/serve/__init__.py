"""Surface-as-a-service: an async HTTP front door over the engine.

``repro.serve`` turns the library into a long-lived server: clients
POST a versioned :class:`~repro.core.spec.GenerationSpec` document and
get a job id; they poll job state (``repro.obs.status/v1`` documents,
so ``repro top`` works unchanged), then range-read the finished surface
chunk by chunk straight off the :class:`~repro.io.store.SurfaceStore`
memmap — the server never materialises a big surface in RAM.

Layered bottom-up:

``batch``    shared-spectrum batching of concurrent small requests
             onto one ``apply_kernels_valid`` pass (bit-identical to
             solo generation — see the module docstring for the proof
             obligations)
``service``  the HTTP-free job manager: spec validation, per-tenant
             admission (429 + Retry-After upstream), checkpointed big
             jobs, chunk reads
``server``   the ``/v1/jobs`` routes over :class:`repro.obs.httpd.HttpServer`,
             the asyncio HTTP/1.1 server the dist coordinator's status
             port runs too

Start one from the CLI (``repro-rrs serve``) or programmatically::

    from repro.serve import ServeConfig, ServeServer, SurfaceService

    service = SurfaceService(ServeConfig(data_dir="/tmp/serve"))
    server = ServeServer(service, port=8787)
    await server.start()
"""

from .batch import BatchItem, Batcher, group_key
from ..obs.httpd import HttpError, Request
from .server import ServeServer, parse_range
from .service import JOB_STATES, ServeConfig, SurfaceService, TenantBusy

__all__ = [
    "BatchItem",
    "Batcher",
    "group_key",
    "HttpError",
    "Request",
    "parse_range",
    "ServeServer",
    "JOB_STATES",
    "ServeConfig",
    "SurfaceService",
    "TenantBusy",
]
