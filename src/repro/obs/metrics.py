"""Latency histograms and the one Prometheus exposition writer.

The span tracer answers *where did the time go*; this module answers
*what is the latency distribution*.  A :class:`MetricsRegistry` is a
per-run collection of :class:`Histogram` families — log-bucketed
latency/size distributions with Prometheus-style cumulative buckets
and derived p50/p95/p99.  Counts are not kept here: they live in the
run's ``RunCounters``, and the exporter renders them from the trace.

The registry has one writer, the :class:`~repro.obs.trace.Trace` that
owns it: every finished or absorbed span goes through
:meth:`MetricsRegistry.observe_span`, which maps instrumented phase
names onto histogram families (:data:`SPAN_HISTOGRAMS` — SAT-call
latency, incremental-validation latency, candidate screen time,
journal appends, BDD node growth).

:func:`render_prometheus` writes every family of a ``--metrics`` file
in strict exposition format — ``# HELP``/``# TYPE`` per family,
histogram ``_bucket``/``_sum``/``_count`` series with cumulative counts
and a ``+Inf`` bucket — and :func:`parse_prometheus_text` is the
matching strict parser (used by the conformance tests).

Stdlib only.  A registry belongs to one run, which has one thread; it
is not safe to share between threads.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]

#: one counter or gauge family for :func:`render_prometheus`:
#: ``(name, kind, help, [(labels, value), ...])``
Family = Tuple[str, str, str, Sequence[Tuple[LabelPairs, float]]]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal Prometheus metric name.

    Illegal characters (``.`` in phase names, ``-``, whitespace, ...)
    become ``_``; a leading digit is prefixed with ``_``.
    """
    cleaned = _METRIC_NAME_RE.sub("_", name) or "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


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

_LATENCY_BOUNDS = tuple(float(b) for b in LATENCY_BUCKETS)


class Histogram:
    """One log-bucketed histogram family.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    *non-cumulatively*; the exposition renderer accumulates.  The
    overflow count (observations above the last bound) lands in the
    implicit ``+Inf`` bucket.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[float], help: str = ""):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.help = help or name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
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
        """
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
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
        }


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
    "journal.append": ("repro_journal_append_seconds",
                       "checkpoint-journal append latency"),
}

#: span name whose node count feeds the BDD-growth size histogram
BDD_SESSION_SPAN = "bdd.session"
BDD_NODES_HISTOGRAM = ("repro_bdd_session_nodes",
                       "BDD nodes grown per symbolic session")


class MetricsRegistry:
    """The histogram families of one run, by name.

    Asking for an existing family with different bucket bounds raises
    :class:`ValueError`: one name has one bucket layout.
    """

    def __init__(self):
        self._histograms: Dict[str, Histogram] = {}

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The family ``name``, created on first use (latency buckets
        unless ``buckets`` says otherwise)."""
        name = sanitize_metric_name(name)
        bounds = (_LATENCY_BOUNDS if buckets is None
                  else tuple(float(b) for b in buckets))
        family = self._histograms.get(name)
        if family is None:
            family = self._histograms[name] = Histogram(name, bounds, help)
        elif family.bounds != bounds:
            raise ValueError(f"histogram {name!r} already registered "
                             "with other bucket bounds")
        return family

    def observe_span(self, name: str, duration: float,
                     tags: Optional[Dict[str, Any]] = None) -> None:
        """Route one finished span into its histogram family (if any).

        Called by :meth:`Trace._finish` for every span and by
        :meth:`Trace.absorb` for every grafted worker span; unmapped
        names cost one dict miss.
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

    def histograms(self) -> Dict[str, Histogram]:
        """Every family, by name, in name order."""
        return dict(sorted(self._histograms.items()))

    def histogram_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Per-family snapshots — what
        :func:`repro.obs.store.record_from_result` persists into
        ``RunRecord.histograms`` so ``repro runs diff/regress`` can
        gate on tail latency."""
        return {name: h.snapshot() for name, h in self.histograms().items()}


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


def _labels_text(pairs: Iterable[Tuple[str, str]]) -> str:
    inner = ",".join(f'{sanitize_metric_name(k)}="{_escape_label(v)}"'
                     for k, v in pairs)
    return "{" + inner + "}" if inner else ""


def render_prometheus(registry: Optional[MetricsRegistry] = None,
                      families: Iterable[Family] = ()) -> str:
    """Histogram families of ``registry`` plus counter/gauge
    ``families``, in strict Prometheus exposition format.

    One ``# HELP`` + ``# TYPE`` pair per family; histograms as
    cumulative ``_bucket`` series (``le`` labels, terminal ``+Inf``)
    plus ``_sum`` and ``_count``.  Label values are escaped and names
    sanitized, so run names and phase paths can carry anything.
    """
    lines: List[str] = []

    def head(name: str, kind: str, help_: str) -> None:
        lines.append(f"# HELP {name} {_escape_help(help_)}")
        lines.append(f"# TYPE {name} {kind}")

    hists: Iterable[Histogram] = (
        registry.histograms().values() if registry is not None else ())
    for h in hists:
        head(h.name, "histogram", h.help)
        cumulative = 0
        for bound, n in zip(h.bounds, h.bucket_counts):
            cumulative += n
            lines.append(f'{h.name}_bucket{{le="{_fmt_value(bound)}"}} '
                         f"{cumulative}")
        lines.append(f'{h.name}_bucket{{le="+Inf"}} {h.count}')
        lines.append(f"{h.name}_sum {_fmt_value(h.sum)}")
        lines.append(f"{h.name}_count {h.count}")
    for name, kind, help_, samples in families:
        name = sanitize_metric_name(name)
        head(name, kind, help_)
        for labels, value in samples:
            lines.append(f"{name}{_labels_text(labels)} {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# strict exposition parsing (conformance tests)
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
