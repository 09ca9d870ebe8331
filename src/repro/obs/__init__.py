"""Observability: hierarchical run tracing, exporters, summaries.

The engine is instrumented with :class:`Trace` spans end to end — per
failing output, point-set enumeration, candidate ranking, choice
search, the simulation screen, every supervised SAT validation, every
BDD session, every journal append, resynthesis, and the degradation
events.  Counts live in the run's ``RunCounters`` and time in the
trace; every span carries the counter deltas over its lifetime, so the
spans are the one time-resolved record of the counts.  The latency
histograms of the trace's :class:`MetricsRegistry`, the persisted
:class:`RunRecord` and the Prometheus-style metrics file are derived
from those two.  A finished trace exports as JSONL, Chrome
trace-event JSON (Perfetto / ``chrome://tracing``), or the metrics
file, and renders as a phase tree with SAT-conflict and BDD-node
attribution (``repro trace <file>``).

When no trace is requested the engine threads :data:`NULL_TRACE`,
whose calls are inert — instrumentation costs one attribute lookup
and one call per site.

Like ``runtime``, this package sits at the bottom of the layering: it
depends on the standard library only and is driven by ``eco`` and
``cli``.
"""

from repro.obs.trace import (
    NULL_TRACE,
    Event,
    NullTrace,
    Span,
    Trace,
    ensure_trace,
)
from repro.obs.atomicio import (
    atomic_write_text,
    detect_torn_tail,
    salvage_jsonl,
)
from repro.obs.export import (
    chrome_payload,
    prometheus_text,
    read_trace,
    write_chrome,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    SPAN_HISTOGRAMS,
    Histogram,
    MetricsRegistry,
    PrometheusParseError,
    log_buckets,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.store import (
    DEFAULT_STORE_DIR,
    MetricDelta,
    Regression,
    RegressionThresholds,
    RunRecord,
    RunStore,
    RunStoreError,
    check_regressions,
    diff_records,
    record_from_result,
)
from repro.obs.summary import (
    HotOutput,
    PhaseNode,
    TraceSummary,
    brief_phase_lines,
    format_summary,
    summarize,
)

__all__ = [
    "NULL_TRACE",
    "Event",
    "NullTrace",
    "Span",
    "Trace",
    "ensure_trace",
    "atomic_write_text",
    "detect_torn_tail",
    "salvage_jsonl",
    "chrome_payload",
    "prometheus_text",
    "read_trace",
    "sanitize_metric_name",
    "write_chrome",
    "write_jsonl",
    "write_prometheus",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "SPAN_HISTOGRAMS",
    "Histogram",
    "MetricsRegistry",
    "PrometheusParseError",
    "log_buckets",
    "parse_prometheus_text",
    "render_prometheus",
    "DEFAULT_STORE_DIR",
    "MetricDelta",
    "Regression",
    "RegressionThresholds",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "check_regressions",
    "diff_records",
    "record_from_result",
    "HotOutput",
    "PhaseNode",
    "TraceSummary",
    "brief_phase_lines",
    "format_summary",
    "summarize",
]
