"""Run-store tests: persistence, refs, diffing, regression detection."""

import json
import os

import pytest

from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.obs import Trace
from repro.obs.store import (
    MetricDelta,
    RegressionThresholds,
    RunRecord,
    RunStore,
    RunStoreError,
    check_regressions,
    diff_records,
    new_run_id,
    record_from_result,
)
from repro.runtime.faultinject import FaultInjector, SITE_CLOCK
from repro.workloads.figures import example1_circuits


def make_record(run_id="r1", wall=1.0, outcome="ok", degraded=False,
                counters=None, **kwargs):
    return RunRecord(
        run_id=run_id, kind="test", name="case", started_at=100.0,
        wall_seconds=wall, outcome=outcome, degraded=degraded,
        counters=dict(counters or {}), **kwargs)


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "runs"))


class TestRunRecord:
    def test_json_round_trip(self):
        rec = make_record(counters={"sat_conflicts_spent": 5})
        back = RunRecord.from_json(rec.to_json())
        assert back == rec

    def test_unknown_keys_preserved(self):
        payload = make_record().to_json()
        payload["future_field"] = {"nested": [1, 2]}
        back = RunRecord.from_json(payload)
        assert back.extra == {"future_field": {"nested": [1, 2]}}
        assert back.to_json()["future_field"] == {"nested": [1, 2]}

    def test_tolerates_minimal_payload(self):
        back = RunRecord.from_json({"run_id": "x"})
        assert back.run_id == "x"
        assert back.outcome == "?"
        assert back.counters == {}

    def test_run_ids_sortable_and_unique(self):
        ids = {new_run_id(1700000000.0) for _ in range(32)}
        assert len(ids) == 32
        assert all(i.startswith("2023") for i in ids)


class TestRunStore:
    def test_publish_and_load(self, store):
        store.publish(make_record("a" * 8, wall=1.0))
        store.publish(make_record("b" * 8, wall=2.0))
        records = store.load_all()
        assert [r.run_id for r in records] == ["a" * 8, "b" * 8]
        assert store.skipped == 0
        entries = store.list()
        assert [e["run_id"] for e in entries] == ["a" * 8, "b" * 8]

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "env-store"))
        store = RunStore()
        store.publish(make_record())
        assert os.path.exists(tmp_path / "env-store" / "records.jsonl")

    def test_empty_root_resolves_with_the_journals(self, tmp_path,
                                                   monkeypatch):
        """``repro eco --store ""`` keeps a run's record and journal in
        one store: both fall back to ``$REPRO_RUN_STORE``."""
        from repro.eco.checkpoint import RunJournal

        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "env-store"))
        monkeypatch.chdir(tmp_path)
        store = RunStore("")
        journal = RunJournal("x", store_root="")
        assert store.root == journal.store_root == str(tmp_path / "env-store")
        store.publish(make_record())
        assert os.listdir(tmp_path) == ["env-store"]

    def test_truncated_line_skipped(self, store):
        store.publish(make_record("a" * 8))
        store.publish(make_record("b" * 8))
        with open(store.records_path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "tru')  # a killed writer's leftovers
        records = store.load_all()
        assert [r.run_id for r in records] == ["a" * 8, "b" * 8]
        assert store.skipped == 1

    def test_list_is_read_only_on_a_corrupt_store(self, store):
        """``runs list`` never writes, even past an unparsable line."""
        store.publish(make_record("a" * 8))
        with open(store.records_path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        store.publish(make_record("b" * 8))
        for path in os.listdir(store.root):
            os.utime(os.path.join(store.root, path), ns=(10**18, 10**18))

        def state():
            out = {}
            for path in sorted(os.listdir(store.root)):
                full = os.path.join(store.root, path)
                with open(full, "rb") as fh:
                    out[path] = (fh.read(), os.stat(full).st_mtime_ns)
            return out

        before = state()
        for _ in range(2):
            entries = store.list()
            assert [e["run_id"] for e in entries] == ["a" * 8, "b" * 8]
            assert store.skipped == 1
        assert state() == before
        assert list(before) == ["records.jsonl"]

    def test_resolve_refs(self, store):
        store.publish(make_record("2026-aaa1"))
        store.publish(make_record("2026-bbb2"))
        store.publish(make_record("2027-ccc3"))
        assert store.resolve("last").run_id == "2027-ccc3"
        assert store.resolve("first").run_id == "2026-aaa1"
        assert store.resolve("-2").run_id == "2026-bbb2"
        assert store.resolve("2026-b").run_id == "2026-bbb2"

    def test_resolve_errors(self, store):
        with pytest.raises(RunStoreError, match="empty"):
            store.resolve("last")
        store.publish(make_record("2026-aaa1"))
        store.publish(make_record("2026-bbb2"))
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.resolve("2026")
        with pytest.raises(RunStoreError, match="no run matches"):
            store.resolve("zzz")
        with pytest.raises(RunStoreError, match="only 2"):
            store.resolve("-3")

    def test_no_temp_leftovers(self, store, tmp_path):
        store.publish(make_record())
        leftovers = [n for n in os.listdir(store.root)
                     if n.startswith(".tmp-")]
        assert leftovers == []

    def test_legacy_index_is_ignored_and_kept(self, store, caplog):
        """An ``index.json`` from an older version, however stale or
        malformed, neither feeds ``list`` nor gets rewritten."""
        store.publish(make_record("a" * 8))
        legacy = os.path.join(store.root, "index.json")
        with open(legacy, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "runs": [{"run_id"')  # killed writer
        store.publish(make_record("b" * 8))
        with caplog.at_level("WARNING", logger="repro.obs"):
            entries = store.list()
        assert [e["run_id"] for e in entries] == ["a" * 8, "b" * 8]
        assert not caplog.records
        store.recover()
        with open(legacy, encoding="utf-8") as fh:
            assert fh.read() == '{"version": 1, "runs": [{"run_id"'


class TestRecover:
    def test_clean_store_reports_nothing_to_do(self, store):
        store.publish(make_record("a" * 8))
        report = store.recover()
        assert report["records"] == 1
        assert report["skipped_lines"] == 0
        assert report["salvaged_fragment"] is None
        assert report["swept_tmp"] == 0
        assert report["resumable"] == []

    def test_salvages_torn_records_tail(self, store, caplog):
        store.publish(make_record("a" * 8))
        with open(store.records_path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "tor')
        with caplog.at_level("WARNING", logger="repro.obs"):
            report = store.recover()
        assert report["records"] == 1
        assert report["salvaged_fragment"].startswith('{"run_id"')
        # the torn tail is gone from disk, not just skipped
        with open(store.records_path, encoding="utf-8") as fh:
            assert fh.read().count("\n") == 1
        assert store.recover()["salvaged_fragment"] is None

    def test_sweeps_orphaned_tmp_files(self, store):
        store.publish(make_record("a" * 8))
        orphan = os.path.join(store.root, ".tmp-orphan-123")
        with open(orphan, "w", encoding="utf-8") as fh:
            fh.write("half a write")
        report = store.recover()
        assert report["swept_tmp"] == 1
        assert not os.path.exists(orphan)

    def test_lists_resumable_journals(self, store):
        from repro.eco.checkpoint import RunJournal
        from repro.eco.config import EcoConfig

        journal = RunJournal("r-live", store_root=store.root)
        journal.start("adder", EcoConfig(), ["o1"])
        report = store.recover()
        assert [e["run_id"] for e in report["resumable"]] == ["r-live"]


class TestDiff:
    def test_wall_and_counters(self):
        base = make_record(wall=1.0, counters={"sat_conflicts_spent": 100})
        cur = make_record(wall=2.0, counters={"sat_conflicts_spent": 150,
                                              "fallbacks": 1})
        deltas = {d.metric: d for d in diff_records(base, cur)}
        assert deltas["wall_seconds"].delta == pytest.approx(1.0)
        assert deltas["wall_seconds"].pct == pytest.approx(100.0)
        assert deltas["counters.sat_conflicts_spent"].delta == 50
        assert deltas["counters.fallbacks"].current == 1

    def test_all_zero_counters_elided(self):
        deltas = diff_records(make_record(counters={"x": 0}),
                              make_record(counters={"x": 0}))
        assert [d.metric for d in deltas] == ["wall_seconds"]

    def test_pct_none_on_zero_baseline(self):
        assert MetricDelta("m", 0.0, 5.0).pct is None


class TestRegressions:
    def test_identical_runs_pass(self):
        rec = make_record(wall=1.0, counters={"sat_conflicts_spent": 500,
                                              "bdd_nodes_spent": 10000})
        assert check_regressions(rec, rec) == []

    def test_needs_both_pct_and_floor(self):
        base = make_record(wall=0.01)
        # +300% but under the 0.1s absolute floor: noise, not regression
        assert check_regressions(base, make_record(wall=0.04)) == []
        # over the floor but under 25%: also noise
        base = make_record(wall=10.0)
        assert check_regressions(base, make_record(wall=11.0)) == []
        # both: regression
        regs = check_regressions(base, make_record(wall=20.0))
        assert [r.metric for r in regs] == ["wall_seconds"]

    def test_counter_thresholds(self):
        base = make_record(counters={"sat_conflicts_spent": 1000,
                                     "bdd_nodes_spent": 50000})
        cur = make_record(counters={"sat_conflicts_spent": 1200,
                                    "bdd_nodes_spent": 60000})
        metrics = {r.metric for r in check_regressions(base, cur)}
        assert metrics == {"counters.sat_conflicts_spent",
                           "counters.bdd_nodes_spent"}

    def test_custom_thresholds(self):
        base = make_record(wall=1.0)
        cur = make_record(wall=1.2)
        assert check_regressions(base, cur) == []
        tight = RegressionThresholds(wall_pct=5.0, wall_floor_s=0.05)
        assert len(check_regressions(base, cur, tight)) == 1

    def test_outcome_and_degradation_zero_tolerance(self):
        base = make_record(outcome="ok")
        cur = make_record(outcome="degraded", degraded=True,
                          counters={"fallbacks": 2,
                                    "degraded_outputs": 1})
        metrics = {r.metric for r in check_regressions(base, cur)}
        assert metrics == {"outcome", "degraded", "counters.fallbacks",
                           "counters.degraded_outputs"}

    def test_improvement_is_not_regression(self):
        base = make_record(wall=10.0, outcome="degraded", degraded=True,
                           counters={"fallbacks": 2})
        cur = make_record(wall=1.0, outcome="ok")
        assert check_regressions(base, cur) == []


def seconds_histogram(p95, count=20):
    return {"count": count, "sum": p95 * count, "p50": p95 / 2,
            "p95": p95, "p99": p95 * 1.2,
            "buckets": [[p95, count], ["+Inf", count]]}


class TestHistogramPersistence:
    def test_histograms_round_trip(self):
        rec = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.01)})
        back = RunRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back.histograms == rec.histograms

    def test_diff_reports_p95_for_shared_families(self):
        base = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.01),
            "repro_only_base_seconds": seconds_histogram(0.01)})
        cur = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.02),
            "repro_only_cur_seconds": seconds_histogram(0.01)})
        deltas = {d.metric: d for d in diff_records(base, cur)}
        d = deltas["histograms.repro_sat_call_seconds.p95"]
        assert d.delta == pytest.approx(0.01)
        assert not any("only_base" in m or "only_cur" in m
                       for m in deltas)

    def test_p95_regression_needs_pct_and_floor(self):
        base = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.10)})
        # +40%: under the 50% threshold
        cur = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.14)})
        assert check_regressions(base, cur) == []
        # +100% but only 20ms absolute: under the 50ms floor
        small = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.02)})
        worse = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.04)})
        assert check_regressions(small, worse) == []
        # both exceeded: regression, with a readable message
        cur = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.30)})
        (reg,) = check_regressions(base, cur)
        assert reg.metric == "histograms.repro_sat_call_seconds.p95"
        assert "300.0ms" in reg.message

    def test_p95_gate_ignores_non_latency_families(self):
        base = make_record(histograms={
            "repro_bdd_session_nodes": seconds_histogram(100.0)})
        cur = make_record(histograms={
            "repro_bdd_session_nodes": seconds_histogram(9000.0)})
        assert check_regressions(base, cur) == []

    def test_p95_improvement_is_not_regression(self):
        base = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.30)})
        cur = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.01)})
        assert check_regressions(base, cur) == []

    def test_custom_p95_thresholds(self):
        base = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.10)})
        cur = make_record(histograms={
            "repro_sat_call_seconds": seconds_histogram(0.14)})
        tight = RegressionThresholds(p95_pct=10.0, p95_floor_s=0.01)
        assert len(check_regressions(base, cur, tight)) == 1


class TestRecordFromResult:
    def run_case(self, injector=None):
        impl, spec = example1_circuits(width=2)
        config = EcoConfig(num_samples=8)
        trace = Trace(name=impl.name)
        result = rectify(impl, spec, config, injector=injector,
                         trace=trace)
        return record_from_result(result, trace=trace, kind="test",
                                  config=config)

    def test_engine_record_contents(self):
        rec = self.run_case()
        assert rec.kind == "test"
        assert rec.outcome == "ok"
        assert rec.counters["sat_validations"] > 0
        assert rec.config["num_samples"] == 8
        assert not rec.strict
        assert any(row["phase"] == "eco.rectify" for row in rec.phases)
        assert rec.resolution  # per-output outcomes tallied

    def test_injected_clock_jump_inflates_wall(self):
        injector = FaultInjector()
        injector.arm(SITE_CLOCK, 2, payload=50.0)
        slow = self.run_case(injector=injector)
        assert slow.wall_seconds > 49.0
        base = self.run_case()
        regs = check_regressions(base, slow)
        assert any(r.metric == "wall_seconds" for r in regs)

    def test_trace_registry_histograms_persist(self):
        rec = self.run_case()
        assert "repro_sat_call_seconds" in rec.histograms
        snap = rec.histograms["repro_sat_call_seconds"]
        assert snap["count"] > 0
        assert snap["buckets"][-1][0] == "+Inf"
        assert snap["p95"] >= snap["p50"] > 0

    def test_untraced_result_still_records(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        rec = record_from_result(result, kind="test")
        assert rec.phases == []
        assert rec.wall_seconds == pytest.approx(
            result.runtime_seconds, abs=1e-6)
