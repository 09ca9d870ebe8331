"""Histogram registry, histogram math, and exposition conformance.

The round-trip tests are the conformance satellite: every payload
``render_prometheus`` emits must survive ``parse_prometheus_text``,
whose validation encodes the exposition-format contract (HELP before
TYPE, ``le`` ordering, cumulative bucket counts, terminal ``+Inf``
equal to ``_count``).
"""

import math

import pytest

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
)
from repro.obs.trace import Trace


class TestBuckets:
    def test_log_buckets_are_geometric(self):
        assert log_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]

    @pytest.mark.parametrize("start,factor,count", [
        (0.0, 2.0, 4), (-1.0, 2.0, 4), (1.0, 1.0, 4), (1.0, 2.0, 0),
    ])
    def test_log_buckets_rejects_degenerate_shapes(self, start, factor,
                                                   count):
        with pytest.raises(ValueError):
            log_buckets(start, factor, count)

    def test_default_boundaries_cover_the_useful_range(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(0.0001)
        assert LATENCY_BUCKETS[-1] > 50.0          # ~52 s
        assert SIZE_BUCKETS[0] == 64
        assert SIZE_BUCKETS[-1] > 1e9


class TestHistogram:
    def test_observations_land_in_their_buckets(self):
        h = Histogram("h", [1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # <=1, <=10, <=100, overflow
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(556.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            Histogram("h", [2.0, 1.0])

    def test_percentile_interpolates_within_a_bucket(self):
        h = Histogram("h", [1.0, 2.0])
        for _ in range(10):
            h.observe(1.5)                         # all in (1, 2]
        assert h.percentile(0.5) == pytest.approx(1.5)
        assert 1.0 < h.percentile(0.95) <= 2.0

    def test_percentile_of_overflow_reports_last_bound(self):
        h = Histogram("h", [1.0, 2.0])
        for _ in range(10):
            h.observe(99.0)
        assert h.percentile(0.5) == 2.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h", [1.0]).percentile(0.95) == 0.0

    def test_snapshot_buckets_are_cumulative_with_inf(self):
        h = Histogram("h", [1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == [[1.0, 1], [10.0, 2], ["+Inf", 3]]
        assert snap["p50"] > 0


class TestRegistry:
    def test_same_name_shares_a_histogram(self):
        reg = MetricsRegistry()
        a = reg.histogram("repro_n_seconds")
        assert reg.histogram("repro_n_seconds") is a
        assert reg.histogram("repro_m_seconds") is not a

    def test_bucket_bound_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.histogram("repro_n", buckets=[1.0, 2.0])
        reg.histogram("repro_n", buckets=[1.0, 2.0])    # same layout: ok
        with pytest.raises(ValueError, match="other bucket bounds"):
            reg.histogram("repro_n", buckets=[1.0, 3.0])
        with pytest.raises(ValueError, match="other bucket bounds"):
            reg.histogram("repro_n")                     # latency default

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.histogram("repro bad-name.seconds")
        assert list(reg.histograms()) == ["repro_bad_name_seconds"]

    def test_observe_span_routes_mapped_names(self):
        reg = MetricsRegistry()
        reg.observe_span("sat.validate", 0.01, {})
        reg.observe_span("journal.append", 0.02, {})
        reg.observe_span("no.such.phase", 0.01, {})
        fam, _ = SPAN_HISTOGRAMS["sat.validate"]
        assert reg.histograms()[fam].count == 1
        assert reg.histograms()["repro_journal_append_seconds"].count == 1
        assert len(reg.histograms()) == 2           # unmapped: no family

    def test_observe_span_bdd_session_uses_nodes_tag(self):
        reg = MetricsRegistry()
        reg.observe_span("bdd.session", 0.5, {"nodes": 5000})
        reg.observe_span("bdd.session", 0.5, {})    # no tag: skipped
        nodes = reg.histograms()["repro_bdd_session_nodes"]
        assert nodes.count == 1
        assert nodes.bounds[0] == 64.0              # size, not latency

    def test_histogram_snapshots_cover_every_family(self):
        reg = MetricsRegistry()
        reg.histogram("repro_b_seconds", buckets=[1.0, 2.0]).observe(0.5)
        reg.histogram("repro_a_seconds", buckets=[1.0, 2.0]).observe(1.5)
        snaps = reg.histogram_snapshots()
        assert list(snaps) == ["repro_a_seconds", "repro_b_seconds"]
        assert snaps["repro_b_seconds"]["count"] == 1


class TestTraceIntegration:
    def test_finished_spans_feed_the_registry(self):
        trace = Trace(name="t")                     # builds its own
        with trace.span("eco.output", output="o1"):
            with trace.span("sat.validate"):
                pass
        families = trace.metrics.histograms()
        assert families["repro_sat_call_seconds"].count == 1
        assert families["repro_output_seconds"].count == 1

    def test_passed_registry_is_the_one_written(self):
        reg = MetricsRegistry()
        trace = Trace(name="t", metrics=reg)
        with trace.span("sat.validate"):
            pass
        assert trace.metrics is reg
        assert reg.histograms()["repro_sat_call_seconds"].count == 1

    def test_absorb_does_not_double_feed(self):
        """Worker spans reach the registry through the graft, exactly
        once: finishing the span open during the graft observes only
        itself."""
        trace = Trace(name="t")
        with trace.span("eco.output", output="o1"):
            trace.absorb([{"type": "span", "id": 1, "parent": None,
                           "name": "sat.validate", "ts": 0.0, "dur": 0.5,
                           "tags": {}, "counters": {}}])
        families = trace.metrics.histograms()
        sat = families["repro_sat_call_seconds"]
        assert sat.count == 1
        assert sat.sum == 0.5
        assert families["repro_output_seconds"].count == 1


class TestExpositionRoundTrip:
    def make_registry(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_sat_call_seconds",
                          help="SAT call latency")
        for v in (0.0002, 0.003, 0.003, 0.8, 120.0):   # incl. overflow
            h.observe(v)
        return reg

    FAMILIES = [
        ("repro_run_counter_total", "counter", "RunCounters totals",
         [((("counter", "sat_validations"),), 42)]),
        ("repro_run_wall_seconds", "gauge", "wall time", [((), 17.5)]),
    ]

    def test_round_trip_preserves_families_and_samples(self):
        text = render_prometheus(self.make_registry(), self.FAMILIES)
        families = parse_prometheus_text(text)
        assert families["repro_run_counter_total"]["type"] == "counter"
        assert families["repro_run_wall_seconds"]["type"] == "gauge"
        assert families["repro_run_wall_seconds"]["samples"] == [
            ("repro_run_wall_seconds", {}, 17.5)]
        hist = families["repro_sat_call_seconds"]
        assert hist["type"] == "histogram"
        assert hist["help"] == "SAT call latency"
        (sample,) = families["repro_run_counter_total"]["samples"]
        assert sample == ("repro_run_counter_total",
                          {"counter": "sat_validations"}, 42.0)
        buckets = [s for s in hist["samples"]
                   if s[0] == "repro_sat_call_seconds_bucket"]
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 5.0

    def test_round_trip_with_label_escaping(self):
        text = render_prometheus(families=[
            ("repro_g", "gauge", "g", [((("path", 'a\\b"c\nd'),), 1)])])
        families = parse_prometheus_text(text)
        (_, labels, _) = families["repro_g"]["samples"][0]
        assert labels == {"path": 'a\\b"c\nd'}


class TestParserStrictness:
    GOOD = ("# HELP repro_x help text\n"
            "# TYPE repro_x gauge\n"
            "repro_x 1\n")

    def test_accepts_conformant_text(self):
        families = parse_prometheus_text(self.GOOD)
        assert families["repro_x"]["samples"] == [("repro_x", {}, 1.0)]

    @pytest.mark.parametrize("text,match", [
        ("# TYPE repro_x gauge\nrepro_x 1\n", "no # HELP"),
        ("# HELP repro_x h\n# TYPE repro_x gauge\n"
         "# HELP repro_x h\n# TYPE repro_x gauge\n", "duplicate # TYPE"),
        ("repro_x 1\n", "no # TYPE family"),
        ("# HELP repro_x h\n# TYPE repro_x widget\n", "unknown metric"),
        ("# HELP repro_x h\n# TYPE repro_x gauge\nrepro_x not-a-num\n",
         "unparsable sample value"),
        ("# HELP repro_x h\n# TYPE repro_x gauge\n"
         'repro_x{k=unquoted} 1\n', "malformed labels"),
    ])
    def test_rejects_malformed_text(self, text, match):
        with pytest.raises(PrometheusParseError, match=match):
            parse_prometheus_text(text)

    def _hist(self, body):
        return ("# HELP repro_h h\n# TYPE repro_h histogram\n" + body)

    def test_rejects_histogram_without_inf_bucket(self):
        text = self._hist('repro_h_bucket{le="1"} 1\n'
                          "repro_h_sum 1\nrepro_h_count 1\n")
        with pytest.raises(PrometheusParseError, match="\\+Inf"):
            parse_prometheus_text(text)

    def test_rejects_non_cumulative_buckets(self):
        text = self._hist('repro_h_bucket{le="1"} 5\n'
                          'repro_h_bucket{le="2"} 3\n'
                          'repro_h_bucket{le="+Inf"} 5\n'
                          "repro_h_sum 1\nrepro_h_count 5\n")
        with pytest.raises(PrometheusParseError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = self._hist('repro_h_bucket{le="+Inf"} 5\n'
                          "repro_h_sum 1\nrepro_h_count 7\n")
        with pytest.raises(PrometheusParseError, match="!="):
            parse_prometheus_text(text)

    def test_rejects_bucket_without_le(self):
        text = self._hist("repro_h_bucket 5\n"
                          "repro_h_sum 1\nrepro_h_count 5\n")
        with pytest.raises(PrometheusParseError, match="without le"):
            parse_prometheus_text(text)

    def test_special_values_parse(self):
        text = ("# HELP repro_x h\n# TYPE repro_x gauge\n"
                'repro_x{k="a"} +Inf\nrepro_x{k="b"} NaN\n')
        samples = parse_prometheus_text(text)["repro_x"]["samples"]
        assert samples[0][2] == math.inf
        assert math.isnan(samples[1][2])
