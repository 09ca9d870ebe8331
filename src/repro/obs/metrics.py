"""Labeled metrics registry: counters, gauges, log-bucketed histograms.

The span tracer answers *where did the time go* after a run; this
module answers *what is the latency distribution right now*.  A
:class:`MetricsRegistry` is a process-wide (or per-run) collection of

* :class:`Counter` — monotone totals (``repro_counter_total``),
* :class:`Gauge` — point-in-time values (run progress, live BDD nodes,
  worker heartbeat ages),
* :class:`Histogram` — log-bucketed latency/size distributions with
  Prometheus-style cumulative buckets and derived p50/p95/p99.

Every metric family may carry *labels*; ``registry.counter(name,
labels)`` returns the one series for that ``(name, labels)`` pair, so
hot paths can cache the series object and pay one ``+=`` per update.

The tracer feeds the registry automatically: :meth:`Span.finish`
routes the span through :meth:`MetricsRegistry.observe_span`, which
maps instrumented phase names onto histogram families
(:data:`SPAN_HISTOGRAMS` — SAT-call latency, incremental-validation
latency, candidate screen time, BDD node growth) — and
:class:`~repro.obs.sampler.RunSampler` syncs ``RunCounters`` deltas
into counter series on every tick.

:func:`render_prometheus` emits the registry in strict exposition
format — ``# HELP``/``# TYPE`` for every family, histogram
``_bucket``/``_sum``/``_count`` series with cumulative counts and a
``+Inf`` bucket — and :func:`parse_prometheus_text` is the matching
strict parser (used by the conformance tests, the CI smoke job and the
``repro watch`` live dashboard).

Stdlib only apart from :mod:`repro.runtime.sync` (itself pure stdlib),
which supplies the sanctioned lock factories: every series carries a
small update lock so concurrent ``inc``/``observe`` calls from worker
pump threads never lose increments (``x += y`` is not atomic), and
under ``REPRO_SYNC_DEBUG`` all registry locks join the global
lock-order graph.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.export import sanitize_metric_name
from repro.runtime.sync import make_lock

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def log_buckets(start: float, factor: float, count: int) -> List[float]:
    """Geometric bucket boundaries: ``start * factor**i``.

    The implicit ``+Inf`` bucket is not included — every histogram
    gets it for free at render time.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start>0, factor>1, count>=1")
    return [start * factor ** i for i in range(count)]


#: default latency boundaries: 100 us .. ~52 s, x2 per bucket
LATENCY_BUCKETS = log_buckets(0.0001, 2.0, 20)

#: default size boundaries (BDD nodes, bytes, ...): 64 .. ~1.07 G, x4
SIZE_BUCKETS = log_buckets(64, 4.0, 13)


class Counter:
    """One monotone counter series (thread-safe updates)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelPairs):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = make_lock("metrics.series")

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def set_to_at_least(self, total: float) -> None:
        """Raise the counter to ``total`` (sync from a monotone source
        like ``RunCounters``); never lowers it."""
        with self._lock:
            if total > self.value:
                self.value = total


class Gauge:
    """One point-in-time gauge series (thread-safe updates)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelPairs):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = make_lock("metrics.series")

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """One log-bucketed histogram series.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    *non-cumulatively*; the exposition renderer accumulates.  The
    overflow count (observations above the last bound) lands in the
    implicit ``+Inf`` bucket.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts",
                 "count", "sum", "_lock")

    def __init__(self, name: str, labels: LabelPairs,
                 bounds: Sequence[float]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self._lock = make_lock("metrics.series")

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the containing bucket; the overflow
        bucket reports its lower bound (the last finite boundary) — a
        conservative answer for an unbounded tail.  ``0.0`` when empty.
        """
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i >= len(self.bounds):     # +Inf bucket
                    return self.bounds[-1] if self.bounds else 0.0
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * fraction
            cumulative += n
        return self.bounds[-1] if self.bounds else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Serializable state: count/sum/cumulative buckets + derived
        percentiles — the form persisted into ``RunRecord.histograms``.

        Taken atomically under the series lock, so a scrape racing an
        ``observe`` never sees a count/bucket mismatch.
        """
        with self._lock:
            cumulative = 0
            buckets: List[List[Any]] = []
            for bound, n in zip(self.bounds, self.bucket_counts):
                cumulative += n
                buckets.append([bound, cumulative])
            buckets.append(["+Inf", self.count])
            return {
                "count": self.count,
                "sum": round(self.sum, 9),
                "buckets": buckets,
                "p50": round(self._percentile_locked(0.50), 9),
                "p95": round(self._percentile_locked(0.95), 9),
                "p99": round(self._percentile_locked(0.99), 9),
            }

    def merge_counts(self, other: "Histogram") -> None:
        """Fold another series' observations in (same bounds required).

        The two locks are taken sequentially, never nested, so merging
        cannot participate in a lock-order cycle.
        """
        with other._lock:
            bounds = other.bounds
            counts = list(other.bucket_counts)
            count = other.count
            total = other.sum
        if bounds != self.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bucket boundaries")
        with self._lock:
            for i, n in enumerate(counts):
                self.bucket_counts[i] += n
            self.count += count
            self.sum += total


# ----------------------------------------------------------------------
# span -> histogram routing
# ----------------------------------------------------------------------
#: instrumented span names routed into latency histogram families by
#: :meth:`MetricsRegistry.observe_span`
SPAN_HISTOGRAMS: Dict[str, Tuple[str, str]] = {
    "sat.validate": ("repro_sat_call_seconds",
                     "supervised SAT validation call latency"),
    "eco.validate": ("repro_validation_seconds",
                     "full-domain candidate validation latency"),
    "sim.screen": ("repro_screen_seconds",
                   "simulation candidate-screen latency"),
    "lint.screen": ("repro_lint_screen_seconds",
                    "static candidate-screen latency"),
    "eco.output": ("repro_output_seconds",
                   "per-output rectification latency"),
    "eco.search": ("repro_search_seconds",
                   "symbolic search attempt latency"),
}

#: span name whose node count feeds the BDD-growth size histogram
BDD_SESSION_SPAN = "bdd.session"
BDD_NODES_HISTOGRAM = ("repro_bdd_session_nodes",
                       "BDD nodes grown per symbolic session")

JOURNAL_APPEND_HISTOGRAM = ("repro_journal_append_seconds",
                            "checkpoint-journal append latency")


class MetricsRegistry:
    """A named collection of metric families and their series.

    Thread-safe throughout: series creation is double-checked-locked
    (the hot path is one unlocked dict hit; the slow path re-checks
    under the registry lock, so a kind collision can never slip
    through the lock-free read), every series update takes the series'
    own lock (no lost increments), and the read paths copy under the
    registry lock so a mid-run scrape never iterates a dict another
    thread is growing.
    """

    def __init__(self):
        self._lock = make_lock("metrics.registry")
        #: family name -> (kind, help)
        self._families: Dict[str, Tuple[str, str]] = {}
        self._series: Dict[Tuple[str, LabelPairs], Any] = {}

    # ------------------------------------------------------------------
    def _get(self, kind: str, cls, name: str,
             labels: Optional[Dict[str, str]], help_: str, **kwargs):
        name = sanitize_metric_name(name)
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    family = self._families.get(name)
                    if family is not None and family[0] != kind:
                        raise ValueError(
                            f"metric {name!r} already registered as "
                            f"{family[0]}, not {kind}")
                    if family is None:
                        self._families[name] = (kind, help_ or name)
                    series = cls(name, key[1], **kwargs)
                    self._series[key] = series
        # checked on both paths: another thread may have created the
        # series between the unlocked read and taking the lock
        if not isinstance(series, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{self._families[name][0]}, not {kind}")
        return series

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None,
                help: str = "") -> Counter:
        return self._get("counter", Counter, name, labels, help)

    def gauge(self, name: str,
              labels: Optional[Dict[str, str]] = None,
              help: str = "") -> Gauge:
        return self._get("gauge", Gauge, name, labels, help)

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get("histogram", Histogram, name, labels, help,
                         bounds=tuple(buckets if buckets is not None
                                      else LATENCY_BUCKETS))

    # ------------------------------------------------------------------
    def observe_span(self, name: str, duration: float,
                     tags: Optional[Dict[str, Any]] = None) -> None:
        """Route one finished span into its histogram family (if any).

        Called by :meth:`Trace._finish` for every span and by the live
        aggregator for streamed worker spans; unmapped names cost one
        dict miss.
        """
        mapped = SPAN_HISTOGRAMS.get(name)
        if mapped is not None:
            self.histogram(mapped[0], help=mapped[1]).observe(duration)
        elif name == BDD_SESSION_SPAN and tags:
            nodes = tags.get("nodes")
            if nodes is not None:
                self.histogram(BDD_NODES_HISTOGRAM[0],
                               help=BDD_NODES_HISTOGRAM[1],
                               buckets=SIZE_BUCKETS).observe(float(nodes))

    def sync_counters(self, totals: Dict[str, int],
                      prefix: str = "repro_counter_total") -> None:
        """Sync monotone ``RunCounters`` totals into labeled counters.

        The sampler calls this every tick; deltas accumulate because
        :meth:`Counter.set_to_at_least` never lowers a series.
        """
        for key, value in totals.items():
            if value:
                self.counter(prefix, labels={"counter": key},
                             help="RunCounters totals of the current run"
                             ).set_to_at_least(value)

    # ------------------------------------------------------------------
    def families(self) -> Dict[str, Tuple[str, str]]:
        with self._lock:
            return dict(self._families)

    def series(self, name: Optional[str] = None) -> List[Any]:
        name = sanitize_metric_name(name) if name else None
        with self._lock:
            items = sorted(self._series.items())
        return [s for (n, _), s in items if name is None or n == name]

    def histogram_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Per-family snapshots with label series merged.

        This is what :func:`repro.obs.store.record_from_result`
        persists into ``RunRecord.histograms`` so ``repro runs
        diff/regress`` can gate on tail latency.
        """
        with self._lock:
            items = sorted(self._series.items())
        merged: Dict[str, Histogram] = {}
        for (name, _), series in items:
            if not isinstance(series, Histogram):
                continue
            base = merged.get(name)
            if base is None:
                base = Histogram(name, (), series.bounds)
                merged[name] = base
            base.merge_counts(series)
        return {name: h.snapshot() for name, h in merged.items()}


#: the process-wide default registry (`--serve-metrics` serves the
#: run's registry, which the CLI aliases to this one)
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


# ----------------------------------------------------------------------
# exposition rendering
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value != value:                      # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    return "+Inf" if bound == math.inf else _fmt_value(bound)


def _labels_text(pairs: Iterable[Tuple[str, str]]) -> str:
    inner = ",".join(f'{sanitize_metric_name(k)}="{_escape_label(v)}"'
                     for k, v in pairs)
    return "{" + inner + "}" if inner else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in strict Prometheus exposition format.

    One ``# HELP`` + ``# TYPE`` pair per family, histogram families as
    cumulative ``_bucket`` series (``le`` labels, terminal ``+Inf``)
    plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name, (kind, help_) in sorted(registry.families().items()):
        lines.append(f"# HELP {name} {_escape_help(help_)}")
        lines.append(f"# TYPE {name} {kind}")
        for series in registry.series(name):
            labels = series.labels
            if kind == "histogram":
                # one atomic read per series: a scrape racing observe()
                # must never see bucket sums disagree with _count (the
                # strict parser rejects exactly that)
                with series._lock:
                    bucket_counts = list(series.bucket_counts)
                    count = series.count
                    total = series.sum
                cumulative = 0
                for bound, n in zip(series.bounds, bucket_counts):
                    cumulative += n
                    le = labels + (("le", _fmt_bound(bound)),)
                    lines.append(f"{name}_bucket{_labels_text(le)} "
                                 f"{cumulative}")
                le = labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_labels_text(le)} "
                             f"{count}")
                lines.append(f"{name}_sum{_labels_text(labels)} "
                             f"{_fmt_value(total)}")
                lines.append(f"{name}_count{_labels_text(labels)} "
                             f"{count}")
            else:
                lines.append(f"{name}{_labels_text(labels)} "
                             f"{_fmt_value(series.value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# strict exposition parsing (conformance tests + `repro watch`)
# ----------------------------------------------------------------------
class PrometheusParseError(ValueError):
    """The text violates the exposition format contract."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$")
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:\\.|[^"\\])*)"')


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: Optional[str], line: str) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    rest = text
    while rest:
        match = _LABEL_RE.match(rest)
        if match is None:
            raise PrometheusParseError(f"malformed labels in: {line!r}")
        labels[match.group("key")] = _unescape_label(match.group("val"))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise PrometheusParseError(f"malformed labels in: {line!r}")
    return labels


def _parse_value(text: str, line: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise PrometheusParseError(
            f"unparsable sample value in: {line!r}") from None


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse exposition text into family dicts.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}`` and *validates* the contract the
    conformance satellite demands:

    * every sample belongs to a family announced by ``# TYPE`` (the
      ``_bucket``/``_sum``/``_count`` suffixes of a histogram family
      included) and every ``# TYPE`` has a ``# HELP``;
    * histogram bucket series carry ``le`` labels, end with ``+Inf``,
      have non-decreasing cumulative counts, and the ``+Inf`` bucket
      equals the family ``_count``.
    """
    families: Dict[str, Dict[str, Any]] = {}
    help_seen: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_ = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise PrometheusParseError(f"bad HELP name in: {line!r}")
            help_seen[name] = help_
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _NAME_RE.match(name):
                raise PrometheusParseError(f"bad TYPE name in: {line!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise PrometheusParseError(
                    f"unknown metric type {kind!r} in: {line!r}")
            if name in families:
                raise PrometheusParseError(
                    f"duplicate # TYPE for family {name!r}")
            if name not in help_seen:
                raise PrometheusParseError(
                    f"family {name!r} has # TYPE but no # HELP")
            families[name] = {"type": kind, "help": help_seen[name],
                              "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusParseError(f"unparsable sample: {line!r}")
        sample_name = match.group("name")
        family = _family_of(sample_name, families)
        if family is None:
            raise PrometheusParseError(
                f"sample {sample_name!r} has no # TYPE family")
        labels = _parse_labels(match.group("labels"), line)
        value = _parse_value(match.group("value"), line)
        families[family]["samples"].append((sample_name, labels, value))
    _validate_histograms(families)
    return families


def _family_of(sample_name: str,
               families: Dict[str, Dict[str, Any]]) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if base in families and families[base]["type"] == "histogram":
                return base
    return None


def _validate_histograms(families: Dict[str, Dict[str, Any]]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: Dict[LabelPairs, Dict[str, Any]] = {}
        for sample_name, labels, value in family["samples"]:
            base_labels = _label_key(
                {k: v for k, v in labels.items() if k != "le"})
            entry = series.setdefault(
                base_labels, {"buckets": [], "count": None, "sum": None})
            if sample_name == name + "_bucket":
                if "le" not in labels:
                    raise PrometheusParseError(
                        f"{name}_bucket sample without le label")
                entry["buckets"].append(
                    (_parse_value(labels["le"], labels["le"]), value))
            elif sample_name == name + "_count":
                entry["count"] = value
            elif sample_name == name + "_sum":
                entry["sum"] = value
        for labels_key, entry in series.items():
            buckets = entry["buckets"]
            if not buckets:
                raise PrometheusParseError(
                    f"histogram {name!r} has no _bucket series")
            bounds = [b for b, _ in buckets]
            if bounds != sorted(bounds):
                raise PrometheusParseError(
                    f"histogram {name!r} buckets out of le order")
            counts = [c for _, c in buckets]
            if any(b > a for a, b in zip(counts[1:], counts)):
                raise PrometheusParseError(
                    f"histogram {name!r} bucket counts not cumulative")
            if bounds[-1] != math.inf:
                raise PrometheusParseError(
                    f"histogram {name!r} is missing the +Inf bucket")
            if entry["count"] is None or entry["sum"] is None:
                raise PrometheusParseError(
                    f"histogram {name!r} is missing _count or _sum")
            if counts[-1] != entry["count"]:
                raise PrometheusParseError(
                    f"histogram {name!r} +Inf bucket ({counts[-1]}) != "
                    f"_count ({entry['count']})")


def histogram_percentiles(family: Dict[str, Any]
                          ) -> Dict[LabelPairs, Dict[str, float]]:
    """Derive p50/p95/p99 from a parsed histogram family's buckets.

    The ``repro watch`` live dashboard uses this on scraped
    ``/metrics`` payloads.
    """
    out: Dict[LabelPairs, Dict[str, float]] = {}
    series: Dict[LabelPairs, List[Tuple[float, float]]] = {}
    for sample_name, labels, value in family["samples"]:
        if not sample_name.endswith("_bucket"):
            continue
        base = _label_key({k: v for k, v in labels.items() if k != "le"})
        series.setdefault(base, []).append(
            (_parse_value(labels["le"], labels["le"]), value))
    for labels_key, buckets in series.items():
        buckets.sort()
        finite = [(b, c) for b, c in buckets if b != math.inf]
        total = buckets[-1][1] if buckets else 0
        hist = Histogram("tmp", (), [b for b, _ in finite] or [1.0])
        previous = 0
        for i, (_, cumulative) in enumerate(finite):
            hist.bucket_counts[i] = int(cumulative - previous)
            previous = int(cumulative)
        hist.bucket_counts[len(finite)] = int(total - previous)
        hist.count = int(total)
        out[labels_key] = {"p50": hist.percentile(0.50),
                           "p95": hist.percentile(0.95),
                           "p99": hist.percentile(0.99),
                           "count": float(total)}
    return out
