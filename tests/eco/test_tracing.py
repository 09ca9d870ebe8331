"""End-to-end tracing tests through the public rectify API.

Observability must *witness* the supervision machinery: fault-injected
SAT ``UNKNOWN`` streaks, BDD node-limit hits and run degradation all
have to show up as tagged spans/events in the trace.  And the no-op
path must stay a no-op: rectifying without a trace records nothing and
produces the identical patch.
"""

from repro.cec.equivalence import check_equivalence
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.obs import NULL_TRACE, Trace
from repro.runtime import (
    FAULT_UNKNOWN,
    FaultInjector,
    SITE_BDD,
    SITE_CLOCK,
    SITE_SAT,
)
from repro.workloads.figures import example1_circuits


def traced_rectify(config=None, injector=None, width=2):
    impl, spec = example1_circuits(width=width)
    trace = Trace(name=impl.name)
    result = rectify(impl, spec, config or EcoConfig(num_samples=8),
                     injector=injector, trace=trace)
    return impl, spec, trace, result


def spans_named(trace, name):
    return [s for s in trace.spans if s.name == name]


def events_named(trace, name):
    return [e for e in trace.events if e.name == name]


class TestHappyPathTrace:
    def test_full_phase_tree_present(self):
        impl, spec, trace, result = traced_rectify()
        names = {s.name for s in trace.spans}
        assert {"eco.rectify", "eco.diagnose", "eco.output",
                "eco.samples", "eco.search", "bdd.session",
                "eco.rank_pins", "rewiring.candidates",
                "points.enumerate", "choices.enumerate", "sim.screen",
                "eco.validate", "sat.validate",
                "cec.verify_final"} <= names
        assert result.trace is trace
        # every span closed, root covers the run
        assert all(s.t_end is not None for s in trace.spans)
        (root,) = spans_named(trace, "eco.rectify")
        assert root.parent_id is None

    def test_output_spans_tagged_and_counted(self):
        impl, spec, trace, result = traced_rectify()
        outputs = spans_named(trace, "eco.output")
        assert {s.tags["output"] for s in outputs} == set(
            result.per_output)
        for s in outputs:
            assert s.tags["how"] == result.per_output[s.tags["output"]]
        total_conflicts = sum(
            s.counters.get("sat_conflicts_spent", 0) for s in outputs)
        assert total_conflicts == result.counters.sat_conflicts_spent

    def test_sat_validate_spans_tag_verdicts(self):
        impl, spec, trace, result = traced_rectify()
        # one eco.validate span per counted validation; the SAT query
        # spans are a subset (some candidates reject before solving)
        assert len(spans_named(trace, "eco.validate")) == \
            result.counters.sat_validations
        validations = spans_named(trace, "sat.validate")
        assert 0 < len(validations) <= result.counters.sat_validations
        assert {s.tags["result"] for s in validations} <= {
            "equivalent", "counterexample", "unknown"}

    def test_screen_spans_record_one_decision_each(self):
        impl, spec, trace, result = traced_rectify()
        counters = result.counters
        screens = spans_named(trace, "sim.screen")
        # one span per simulation-screen decision, and every decision
        # ends in a rejection or a SAT validation
        assert screens
        assert all(isinstance(s.tags["passed"], bool) for s in screens)
        assert all("batch" not in s.tags for s in screens)
        assert len(screens) == counters.sim_rejects + counters.sat_validations
        assert sum(s.tags["passed"] for s in screens) == \
            counters.sat_validations
        lints = spans_named(trace, "lint.screen")
        assert len(lints) == counters.lint_screens
        assert all(isinstance(s.tags["passed"], bool) for s in lints)

    def test_bdd_sessions_record_node_stats(self):
        impl, spec, trace, result = traced_rectify()
        sessions = spans_named(trace, "bdd.session")
        assert len(sessions) == result.counters.bdd_sessions
        assert all(s.tags.get("nodes", 0) > 0 for s in sessions)
        assert all({"vars", "cache_entries"} <= s.tags.keys()
                   for s in sessions)

    def test_summary_attributes_runtime(self):
        impl, spec, trace, result = traced_rectify()
        summary = result.trace_summary()
        assert summary.roots[0].name == "eco.rectify"
        assert summary.coverage > 0.5
        assert {h.output for h in summary.hot_outputs} == set(
            result.per_output)


class TestFaultVisibility:
    def test_sat_unknown_streak_appears_as_events_and_tags(self):
        injector = FaultInjector().arm(SITE_SAT, range(1, 4),
                                       payload=FAULT_UNKNOWN)
        impl, spec, trace, result = traced_rectify(injector=injector)
        unknowns = events_named(trace, "sat.unknown")
        assert unknowns, "UNKNOWN queries must be visible as events"
        assert all(e.tags["budget"] > 0 for e in unknowns)
        # one solve per query: each UNKNOWN sat.validate span carries
        # exactly one sat.unknown event, and no other span carries one
        unknown_spans = {s.span_id: s
                         for s in spans_named(trace, "sat.validate")
                         if s.tags["result"] == "unknown"}
        assert sorted(e.span_id for e in unknowns) == sorted(unknown_spans)
        assert all(e.tags["port"] == unknown_spans[e.span_id].tags["port"]
                   for e in unknowns)

    def test_bdd_node_limit_appears_as_error_span_and_event(self):
        injector = FaultInjector().arm(SITE_BDD, 1)
        impl, spec, trace, result = traced_rectify(injector=injector)
        hits = events_named(trace, "bdd.node_limit")
        assert hits and hits[0].tags["max_pins"] > 0
        errored = [s for s in spans_named(trace, "eco.search")
                   if s.tags.get("error") == "BddNodeLimitError"]
        assert errored, "the aborted search span must carry the error tag"
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_degradation_event_recorded(self):
        injector = FaultInjector().arm(SITE_CLOCK, 10, payload=1e9)
        impl, spec, trace, result = traced_rectify(
            EcoConfig(num_samples=8, deadline_s=3600.0),
            injector=injector)
        assert result.degraded is True
        (degr,) = events_named(trace, "run.degraded")
        assert "deadline" in degr.tags["reason"]
        assert trace.meta["degraded"] is True
        fallbacks = spans_named(trace, "eco.fallback")
        assert any(s.tags["degraded"] for s in fallbacks)
        assert result.trace_summary().degraded is True

    def test_degraded_run_prints_its_one_event(self):
        # the degradation is the run's only event, so the summary that
        # repro trace prints shows it rather than burying it
        from repro.obs import format_summary, summarize

        injector = FaultInjector().arm(SITE_CLOCK, 2, payload=100.0)
        impl, spec, trace, result = traced_rectify(
            EcoConfig(num_samples=8, deadline_s=50.0), injector=injector)
        assert result.degraded is True
        assert [e.name for e in trace.events] == ["run.degraded"]
        text = format_summary(summarize(trace.records()))
        assert "events (1):" in text
        assert "run.degraded reason=run deadline" in text


class TestNoopPath:
    def test_untraced_run_records_nothing_and_matches(self):
        impl, spec = example1_circuits(width=2)
        config = EcoConfig(num_samples=8)
        plain = rectify(impl, spec, config)
        assert plain.trace is None
        assert plain.trace_summary() is None
        assert NULL_TRACE.spans == [] and NULL_TRACE.events == []

        impl2, spec2 = example1_circuits(width=2)
        traced = Trace(name=impl2.name)
        shadowed = rectify(impl2, spec2, config, trace=traced)
        # identical rectification either way
        assert [op.describe() for op in plain.patch.ops] == \
            [op.describe() for op in shadowed.patch.ops]
        assert plain.per_output == shadowed.per_output
        assert plain.counters.as_dict() == shadowed.counters.as_dict()

    def test_report_omits_phase_breakdown_when_untraced(self):
        from repro.eco.report import format_patch_report
        impl, spec = example1_circuits(width=2)
        plain = rectify(impl, spec, EcoConfig(num_samples=8))
        assert "phase breakdown" not in format_patch_report(plain)

        impl2, spec2 = example1_circuits(width=2)
        _, _, trace, traced = traced_rectify()
        assert "phase breakdown" in format_patch_report(traced)


class TestSpanTotals:
    def test_spans_carry_the_run_totals(self):
        # spans are the one time-resolved record of the counters: the
        # BDD sessions' node tags and the root span's conflict delta
        # add up to the run's totals
        impl, spec, trace, result = traced_rectify()
        sessions = spans_named(trace, "bdd.session")
        assert sessions
        assert sum(s.tags["nodes"] for s in sessions) == \
            result.counters.bdd_nodes_spent
        (root,) = spans_named(trace, "eco.rectify")
        assert root.counters.get("sat_conflicts_spent", 0) == \
            result.counters.sat_conflicts_spent


class TestTelemetrySampling:
    def test_supervised_elapsed_recorded_in_meta(self):
        impl, spec, trace, result = traced_rectify()
        assert "supervised_elapsed_s" in trace.meta
        assert trace.meta["supervised_elapsed_s"] >= 0.0

    def test_injected_clock_jump_visible_in_meta(self):
        injector = FaultInjector().arm(SITE_CLOCK, 2, payload=25.0)
        impl, spec, trace, result = traced_rectify(injector=injector)
        assert trace.meta["supervised_elapsed_s"] > 24.0
        # the real runtime stays honest
        assert result.runtime_seconds < 24.0

    def test_untraced_run_starts_no_sampler_thread(self):
        import threading
        impl, spec = example1_circuits(width=2)
        before = {t.name for t in threading.enumerate()}
        rectify(impl, spec, EcoConfig(num_samples=8))
        after = {t.name for t in threading.enumerate()}
        assert after <= before
        assert threading.active_count() == 1

    def test_recorded_run_has_one_thread(self, tmp_path, monkeypatch):
        # the repro eco default: traced, journaled, published to a store
        import threading

        from repro.eco.checkpoint import RunJournal
        from repro.obs import MetricsRegistry, RunStore, record_from_result
        from repro.runtime.supervisor import RunSupervisor

        counts = []
        real = RunSupervisor.checkpoint

        def spy(self):
            counts.append(threading.active_count())
            return real(self)

        monkeypatch.setattr(RunSupervisor, "checkpoint", spy)
        store = RunStore(str(tmp_path / "store"))
        impl, spec = example1_circuits(width=2)
        config = EcoConfig(num_samples=8)
        trace = Trace(name=impl.name, metrics=MetricsRegistry())
        result = rectify(impl, spec, config, trace=trace,
                         journal=RunJournal("one", store_root=store.root))
        store.publish(record_from_result(result, trace=trace, kind="eco",
                                         name=impl.name, config=config))
        assert counts and set(counts) == {1}
        assert threading.active_count() == 1


class TestJournalSpans:
    def test_journal_time_is_in_the_span_tree(self, tmp_path):
        """One ``journal.append`` span per journal line, counted by
        ``repro_journal_append_seconds``; tracing adds no line."""
        from repro.eco.checkpoint import RunJournal, journal_path

        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8)

        def lines(run_id):
            with open(journal_path(store, run_id), encoding="utf-8") as fh:
                return fh.read().count("\n")

        impl, spec = example1_circuits(width=2)
        trace = Trace(name=impl.name)
        rectify(impl, spec, config, trace=trace,
                journal=RunJournal("traced", store_root=store))
        appends = spans_named(trace, "journal.append")
        assert len(appends) == lines("traced") >= 3
        (root,) = spans_named(trace, "eco.rectify")
        assert all(s.parent_id is not None for s in appends)
        assert root.span_id in {s.parent_id for s in appends}
        family = trace.metrics.histograms()["repro_journal_append_seconds"]
        assert family.count == len(appends)

        impl, spec = example1_circuits(width=2)
        rectify(impl, spec, config,
                journal=RunJournal("untraced", store_root=store))
        assert lines("untraced") == lines("traced")
