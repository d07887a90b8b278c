"""Out-of-core verification of generated surfaces against their spectra.

Closes the generate -> measure -> assert loop: a single streaming pass
over a memmapped :class:`~repro.io.store.SurfaceStore` (or an in-memory
array through the identical code path) measures RMS height/gradient, the
ACF at the correlation length, and the radially averaged Welch PSD, then
gates each against targets derived from the requested spectrum's
discrete weight array.  Results are versioned ``repro.verify/v1``
reports consumed by ``repro verify``, the jobs post-generation stage,
and ``GET /v1/jobs/{id}/verify``.  The same gate judges an ensemble of
realisations (``verify_heights`` on a 3-D stack), which is how
``repro validate --full`` audits the default spectral families.

:mod:`repro.verify.closure` holds the paper's surface-free accuracy
check (``DFT(w) ~ rho``, below eqn 16) and the variance closure.
"""

from .closure import WeightAcfReport, variance_closure, weight_acf_error
from .report import VERIFY_SCHEMA, MetricResult, ReportError, VerifyReport
from .streaming import choose_segment, stream_statistics
from .verifier import (
    REPORT_NAME,
    VerifyConfig,
    VerifyError,
    load_report,
    verify_heights,
    verify_job,
    verify_store,
    write_report,
)

__all__ = [
    "WeightAcfReport",
    "variance_closure",
    "weight_acf_error",
    "VERIFY_SCHEMA",
    "MetricResult",
    "ReportError",
    "VerifyReport",
    "choose_segment",
    "stream_statistics",
    "REPORT_NAME",
    "VerifyConfig",
    "VerifyError",
    "load_report",
    "verify_heights",
    "verify_job",
    "verify_store",
    "write_report",
]
