"""Metrics registry, histogram math, and exposition conformance.

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
    histogram_percentiles,
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


class TestCounterGauge:
    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_to_at_least_never_lowers(self):
        c = MetricsRegistry().counter("repro_x_total")
        c.set_to_at_least(10)
        c.set_to_at_least(4)
        assert c.value == 10

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("repro_x")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4.0


class TestHistogram:
    def test_observations_land_in_their_buckets(self):
        h = Histogram("h", (), [1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # <=1, <=10, <=100, overflow
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(556.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", (), [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            Histogram("h", (), [2.0, 1.0])

    def test_percentile_interpolates_within_a_bucket(self):
        h = Histogram("h", (), [1.0, 2.0])
        for _ in range(10):
            h.observe(1.5)                         # all in (1, 2]
        assert h.percentile(0.5) == pytest.approx(1.5)
        assert 1.0 < h.percentile(0.95) <= 2.0

    def test_percentile_of_overflow_reports_last_bound(self):
        h = Histogram("h", (), [1.0, 2.0])
        for _ in range(10):
            h.observe(99.0)
        assert h.percentile(0.5) == 2.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h", (), [1.0]).percentile(0.95) == 0.0

    def test_snapshot_buckets_are_cumulative_with_inf(self):
        h = Histogram("h", (), [1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == [[1.0, 1], [10.0, 2], ["+Inf", 3]]
        assert snap["p50"] > 0

    def test_merge_requires_identical_bounds(self):
        a = Histogram("h", (), [1.0, 2.0])
        b = Histogram("h", (), [1.0, 2.0])
        a.observe(0.5)
        b.observe(1.5)
        a.merge_counts(b)
        assert a.count == 2
        assert a.bucket_counts == [1, 1, 0]
        with pytest.raises(ValueError):
            a.merge_counts(Histogram("h", (), [1.0, 3.0]))


class TestRegistry:
    def test_same_name_and_labels_share_a_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_n_total", {"k": "x"})
        b = reg.counter("repro_n_total", {"k": "x"})
        c = reg.counter("repro_n_total", {"k": "y"})
        assert a is b and a is not c

    def test_kind_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("repro_n")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_n")

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("repro bad-name.total")
        assert "repro_bad_name_total" in reg.families()

    def test_sync_counters_accumulates_monotonically(self):
        reg = MetricsRegistry()
        reg.sync_counters({"sat_validations": 3, "zeros": 0})
        reg.sync_counters({"sat_validations": 7})
        reg.sync_counters({"sat_validations": 5})   # stale: ignored
        (series,) = reg.series("repro_counter_total")
        assert series.labels == (("counter", "sat_validations"),)
        assert series.value == 7

    def test_observe_span_routes_mapped_names(self):
        reg = MetricsRegistry()
        reg.observe_span("sat.validate", 0.01, {})
        reg.observe_span("no.such.phase", 0.01, {})
        fam, _ = SPAN_HISTOGRAMS["sat.validate"]
        (series,) = reg.series(fam)
        assert series.count == 1
        assert len(reg.series()) == 1               # unmapped: no series

    def test_observe_span_bdd_session_uses_nodes_tag(self):
        reg = MetricsRegistry()
        reg.observe_span("bdd.session", 0.5, {"nodes": 5000})
        reg.observe_span("bdd.session", 0.5, {})    # no tag: skipped
        (series,) = reg.series("repro_bdd_session_nodes")
        assert series.count == 1
        assert series.bounds[0] == 64.0             # size, not latency

    def test_histogram_snapshots_merge_label_series(self):
        reg = MetricsRegistry()
        reg.histogram("repro_h_seconds", {"w": "1"},
                      buckets=[1.0, 2.0]).observe(0.5)
        reg.histogram("repro_h_seconds", {"w": "2"},
                      buckets=[1.0, 2.0]).observe(1.5)
        snaps = reg.histogram_snapshots()
        assert snaps["repro_h_seconds"]["count"] == 2


class TestTraceIntegration:
    def test_finished_spans_feed_the_registry(self):
        reg = MetricsRegistry()
        trace = Trace(name="t", metrics=reg)
        with trace.span("eco.output", output="o1"):
            with trace.span("sat.validate"):
                pass
        assert reg.series("repro_sat_call_seconds")[0].count == 1
        assert reg.series("repro_output_seconds")[0].count == 1

    def test_absorb_does_not_double_feed(self):
        """Worker spans reach the registry via the live bus only; the
        final graft must not observe them again."""
        reg = MetricsRegistry()
        trace = Trace(name="t", metrics=reg)
        trace.absorb([{"type": "span", "id": 1, "parent": None,
                       "name": "sat.validate", "ts": 0.0, "dur": 0.5,
                       "tags": {}, "counters": {}}])
        assert reg.series("repro_sat_call_seconds") == []


class TestExpositionRoundTrip:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_counter_total", {"counter": "sat_validations"},
                    help="RunCounters totals").inc(42)
        reg.gauge("repro_trace_progress", help="span activity").set(17.5)
        h = reg.histogram("repro_sat_call_seconds",
                          help="SAT call latency")
        for v in (0.0002, 0.003, 0.003, 0.8, 120.0):   # incl. overflow
            h.observe(v)
        return reg

    def test_round_trip_preserves_families_and_samples(self):
        reg = self.make_registry()
        families = parse_prometheus_text(render_prometheus(reg))
        assert families["repro_counter_total"]["type"] == "counter"
        assert families["repro_trace_progress"]["type"] == "gauge"
        hist = families["repro_sat_call_seconds"]
        assert hist["type"] == "histogram"
        assert hist["help"] == "SAT call latency"
        (sample,) = families["repro_counter_total"]["samples"]
        assert sample == ("repro_counter_total",
                          {"counter": "sat_validations"}, 42.0)
        buckets = [s for s in hist["samples"]
                   if s[0] == "repro_sat_call_seconds_bucket"]
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 5.0

    def test_round_trip_with_label_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", {"path": 'a\\b"c\nd'}).set(1)
        families = parse_prometheus_text(render_prometheus(reg))
        (_, labels, _) = families["repro_g"]["samples"][0]
        assert labels == {"path": 'a\\b"c\nd'}

    def test_percentiles_recoverable_from_parsed_payload(self):
        reg = self.make_registry()
        families = parse_prometheus_text(render_prometheus(reg))
        pcts = histogram_percentiles(families["repro_sat_call_seconds"])
        ((_, derived),) = list(pcts.items())
        direct = reg.series("repro_sat_call_seconds")[0]
        assert derived["count"] == 5
        assert derived["p50"] == pytest.approx(direct.percentile(0.5))
        assert derived["p95"] == pytest.approx(direct.percentile(0.95))


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


class TestConcurrentRegistry:
    """The registry hammer: the double-checked fast path must never
    lose an update or hand out a mis-kinded series."""

    def test_no_lost_increments_across_threads(self):
        from repro.runtime.sync import make_thread

        registry = MetricsRegistry()
        workers, rounds = 8, 500

        def hammer(wid):
            counter = registry.counter("repro_hammer_total",
                                       labels={"w": str(wid % 2)})
            hist = registry.histogram("repro_hammer_seconds")
            gauge = registry.gauge("repro_hammer_gauge")
            for i in range(rounds):
                counter.inc()
                hist.observe(i * 1e-4)
                gauge.set(float(i))

        threads = [make_thread(hammer, name=f"hammer-{i}", args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)

        total = sum(s.value
                    for s in registry.series("repro_hammer_total"))
        assert total == workers * rounds
        hist = registry.histogram("repro_hammer_seconds")
        assert hist.count == workers * rounds
        assert sum(hist.bucket_counts) == workers * rounds

    def test_fast_path_cannot_bypass_kind_check(self):
        from repro.runtime.sync import make_thread

        registry = MetricsRegistry()
        outcomes = []

        def register(kind):
            try:
                if kind == "counter":
                    registry.counter("repro_kind_clash")
                else:
                    registry.gauge("repro_kind_clash")
                outcomes.append(("ok", kind))
            except ValueError:
                outcomes.append(("raised", kind))

        for trial in range(20):
            registry = MetricsRegistry()
            outcomes = []
            pair = [make_thread(register, name=f"kind-{trial}-c",
                                args=("counter",)),
                    make_thread(register, name=f"kind-{trial}-g",
                                args=("gauge",))]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=10.0)
            verdicts = sorted(v for v, _ in outcomes)
            assert verdicts == ["ok", "raised"], outcomes
            assert len(registry.series("repro_kind_clash")) == 1

    def test_kind_checked_when_series_appears_before_the_lock(self):
        registry = MetricsRegistry()
        lock = registry._lock

        class RacedLock:
            """Registers the counter the moment the gauge call misses
            the unlocked read, then takes the real lock."""

            def __enter__(self):
                registry._lock = lock
                registry.counter("repro_kind_raced")
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        registry._lock = RacedLock()
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_kind_raced")

    def test_render_is_atomic_against_observers(self):
        from repro.runtime.sync import make_event, make_thread

        registry = MetricsRegistry()
        registry.histogram("repro_torn_seconds").observe(0.001)
        stop = make_event("torn-stop")

        def observe_forever():
            hist = registry.histogram("repro_torn_seconds")
            while not stop.is_set():
                hist.observe(0.002)

        writer = make_thread(observe_forever, name="torn-writer")
        writer.start()
        try:
            for _ in range(50):
                # the strict parser asserts +Inf == _count: a torn
                # histogram read fails this round-trip
                parse_prometheus_text(render_prometheus(registry))
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert not writer.is_alive()
