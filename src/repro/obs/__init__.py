"""``repro.obs``: structured observability on the virtual clock.

FlexOS's value proposition is making isolation costs *visible* so the
poset explorer can trade safety against performance; this package is the
instrumentation that grounds the claim.  A :class:`Tracer` records
spans/events for every gate crossing, PKRU write, fault, supervision
decision, allocator operation, context switch, and TCP segment; a
:class:`MetricsRegistry` aggregates counters and latency histograms; and
the exporters emit Chrome trace-event JSON, folded-stack flamegraphs,
and JSON metric snapshots.

Hook sites across the tree consult the module-level no-op singleton
(:data:`repro.obs.tracer.ACTIVE`): with tracing disabled the whole layer
costs a single attribute check per hook, and in *virtual* time it is
free either way — the tracer never charges the clock.

Quickstart::

    from repro.obs import Tracer, tracing, chrome_trace_json

    with tracing(Tracer(clock=instance.clock)) as tracer:
        ... run the workload ...
    open("trace.json", "w").write(chrome_trace_json(tracer))
    snapshot = tracer.metrics.snapshot()

Or from the CLI: ``flexos-repro trace redis`` / ``flexos-repro metrics
redis``.  See ``docs/observability.md``.
"""

from repro.obs.analysis import (
    TraceAnalysis,
    analyze,
    critical_path,
    crossing_matrix,
    library_attribution,
    request_chains,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    flamegraph,
    metrics_json,
)
from repro.obs.hub import HUB_SCHEMA_VERSION, TelemetryHub
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.regress import (
    SNAPSHOT_SCHEMA_VERSION,
    config_digest,
    diff_snapshots,
    flatten_metrics,
    load_snapshot,
)
from repro.obs.slo import SloEvaluator, SloTarget, SlowSampler
from repro.obs.spans import RequestSpan, SpanTracker
from repro.obs.timeseries import WindowedTelemetry
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    get_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "HUB_SCHEMA_VERSION",
    "NULL_TRACER",
    "SNAPSHOT_SCHEMA_VERSION",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "RequestSpan",
    "SloEvaluator",
    "SloTarget",
    "SlowSampler",
    "SpanTracker",
    "TelemetryHub",
    "TraceAnalysis",
    "TraceEvent",
    "Tracer",
    "WindowedTelemetry",
    "analyze",
    "chrome_trace",
    "chrome_trace_json",
    "config_digest",
    "critical_path",
    "crossing_matrix",
    "diff_snapshots",
    "flamegraph",
    "flatten_metrics",
    "get_tracer",
    "install_tracer",
    "library_attribution",
    "load_snapshot",
    "metrics_json",
    "request_chains",
    "tracing",
    "uninstall_tracer",
]
