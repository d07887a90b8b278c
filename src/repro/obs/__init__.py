"""repro.obs — unified tracing & metrics for engines, executors, CLI.

A dependency-free observability substrate answering "where did the
milliseconds go" for any generation run:

* **Spans** (:func:`trace`) — nestable monotonic timers collected by a
  thread-safe :class:`Recorder`;
* **Metrics** (:class:`Metrics`) — counters / gauges / fixed-bucket
  histograms under one dotted naming scheme that absorbs the plan-cache
  stats, batched-FFT work counters, and active-set provenance;
* **Sinks** — Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto), structured metrics JSON, and human text summaries.

Tracing is **off by default**: the installed :data:`NULL_RECORDER`
makes every instrumentation site a no-op (shared null span, no
allocation), so instrumented code pays nothing and produces
bit-identical results when not observed.  Enable with::

    from repro import obs
    with obs.recording() as rec:
        surface = generate_tiled(gen, noise, plan, backend="process")
    obs.write_chrome_trace("t.json", rec)
    obs.write_metrics_json("m.json", rec)

or from the CLI with ``repro-rrs --trace-out t.json --metrics-out
m.json generate ...``.  See ``docs/OBSERVABILITY.md`` for the span and
metric naming scheme and the overhead budget.
"""

from .events import (
    EVENT_LEVELS,
    EventLog,
    event,
    event_log_enabled,
    event_logging,
    get_event_log,
    install_event_log,
    new_run_id,
    uninstall_event_log,
)
from .export import prometheus_name, prometheus_text
from .metrics import DEFAULT_TIME_BUCKETS, Histogram, Metrics
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    add,
    enabled,
    get_recorder,
    install,
    observe,
    recording,
    set_gauge,
    trace,
    uninstall,
)
from .sinks import (
    chrome_trace_events,
    metrics_document,
    provenance_timings,
    timings_summary,
    write_chrome_trace,
    write_metrics_json,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "Metrics",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "add",
    "enabled",
    "get_recorder",
    "install",
    "observe",
    "recording",
    "set_gauge",
    "trace",
    "uninstall",
    "chrome_trace_events",
    "metrics_document",
    "provenance_timings",
    "timings_summary",
    "write_chrome_trace",
    "write_metrics_json",
    "EVENT_LEVELS",
    "EventLog",
    "event",
    "event_log_enabled",
    "event_logging",
    "get_event_log",
    "install_event_log",
    "new_run_id",
    "prometheus_name",
    "prometheus_text",
    "uninstall_event_log",
]
