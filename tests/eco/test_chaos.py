"""Chaos harness: kill the engine at injected fault sites, then resume.

These are the end-to-end fault-tolerance tests the checkpoint/resume
and supervised-pool machinery exists for:

* a run killed before or *during* any journal append (``SITE_JOURNAL``
  payloads ``crash`` / ``torn``) resumes to **bit-identical** patch
  outcomes — same per-output resolutions, same patched netlist;
* a worker killed at dispatch (``SITE_WORKER``) is retried once,
  immediately (``task.retried``); a partition that kills its worker
  twice is quarantined and the run degrades but still verifies;
* a crashed traced run never starts a thread.

Everything is driven through the public ``rectify`` API with a real
Table-1 workload plus small synthetic multi-bug circuits.
"""

import json
import threading

import pytest

from repro.cec.equivalence import check_equivalence
from repro.errors import JournalError
from repro.netlist import write_blif
from repro.netlist.circuit import Circuit
from repro.obs.trace import Trace
from repro.runtime import (
    FAULT_CRASH,
    FAULT_KILL,
    FAULT_TORN,
    FaultInjector,
    InjectedCrash,
    SITE_JOURNAL,
    SITE_WORKER,
)
from repro.eco.checkpoint import RunJournal
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.runtime.supervisor import RunSupervisor
from repro.workloads.suite import build_case


def multi_bug_circuits(k):
    """``k`` independent single-bug blocks (OR instead of AND each)."""
    spec = Circuit("spec")
    impl = Circuit("impl")
    for i in range(k):
        a, b, c = spec.add_inputs([f"a{i}", f"b{i}", f"c{i}"])
        g1 = spec.and_(a, b, name=f"g1_{i}")
        spec.set_output(f"o{i}", spec.xor(g1, c, name=f"g2_{i}"))
        a, b, c = impl.add_inputs([f"a{i}", f"b{i}", f"c{i}"])
        h1 = impl.or_(a, b, name=f"h1_{i}")
        impl.set_output(f"o{i}", impl.xor(h1, c, name=f"h2_{i}"))
    return impl, spec


def blif_text(circuit, tmp_path, name):
    path = str(tmp_path / name)
    write_blif(circuit, path)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def assert_identical_outcome(resumed, baseline, spec, tmp_path):
    assert resumed.per_output == baseline.per_output
    assert blif_text(resumed.patched, tmp_path, "resumed.blif") \
        == blif_text(baseline.patched, tmp_path, "baseline.blif")
    assert check_equivalence(resumed.patched, spec).equivalent is True


class TestKillAndResumeSynthetic:
    """Kill/resume identity at every journal append of a 2-commit run.

    Append ordinals for a two-failing-output run: 1 = ``run_started``,
    2 = ``diagnosed``, 3-4 = the two commits, 5 = ``run_finished`` —
    so the sweep covers a kill before any progress, between commits,
    and after all search work is already journaled.
    """

    @pytest.mark.parametrize("fault", [FAULT_CRASH, FAULT_TORN])
    @pytest.mark.parametrize("ordinal", [3, 4, 5])
    def test_bit_identical_resume(self, tmp_path, fault, ordinal):
        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8)

        impl, spec = multi_bug_circuits(2)
        baseline = rectify(impl, spec, config,
                           journal=RunJournal("base", store_root=store))
        assert len(baseline.per_output) == 2

        impl, spec = multi_bug_circuits(2)
        injector = FaultInjector().arm(SITE_JOURNAL, ordinal,
                                       payload=fault)
        with pytest.raises(InjectedCrash):
            rectify(impl, spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store))

        impl, spec = multi_bug_circuits(2)
        journal = RunJournal("chaos", store_root=store, resume=True)
        if fault == FAULT_TORN:
            # the dying append left half a line; salvage dropped it
            assert journal.state.salvaged is not None
        assert journal.state.finished is None
        assert len(journal.commits) == ordinal - 3
        resumed = rectify(impl, spec, config, journal=journal)
        assert resumed.counters.replayed_commits == ordinal - 3
        assert_identical_outcome(resumed, baseline, spec, tmp_path)
        back = RunJournal("chaos", store_root=store, resume=True)
        assert back.state.finished == "ok"

    def test_double_kill_still_resumes(self, tmp_path):
        """Crash the original run *and* the first resumption."""
        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8)
        impl, spec = multi_bug_circuits(2)
        baseline = rectify(impl, spec, config,
                           journal=RunJournal("base", store_root=store))

        impl, spec = multi_bug_circuits(2)
        injector = FaultInjector().arm(SITE_JOURNAL, 3, payload=FAULT_CRASH)
        with pytest.raises(InjectedCrash):
            rectify(impl, spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store))
        # resumption appends commits only (header survives); its first
        # append is the first commit — kill it mid-write
        impl, spec = multi_bug_circuits(2)
        injector = FaultInjector().arm(SITE_JOURNAL, 1, payload=FAULT_TORN)
        with pytest.raises(InjectedCrash):
            rectify(impl, spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store,
                                       resume=True))
        impl, spec = multi_bug_circuits(2)
        resumed = rectify(impl, spec, config,
                          journal=RunJournal("chaos", store_root=store,
                                             resume=True))
        assert_identical_outcome(resumed, baseline, spec, tmp_path)

    def test_resume_against_changed_netlist_is_journal_error(
            self, tmp_path):
        """An op that no longer applies reports as a journal mismatch.

        The name / config-digest / failing-set guards can all pass
        while the gate structure underneath changed (e.g. resuming
        against a differently synthesized netlist).  The replay must
        surface that as a ``JournalError``, not a raw netlist error.
        """
        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8)
        impl, spec = multi_bug_circuits(2)
        injector = FaultInjector().arm(SITE_JOURNAL, 4,
                                       payload=FAULT_CRASH)
        with pytest.raises(InjectedCrash):
            rectify(impl, spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store))

        # simulate a changed netlist: point the journaled commit's op
        # at a pin the design does not have
        path = RunJournal("chaos", store_root=store, resume=True).path
        lines = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("type") == "commit":
                    rec["ops"][0]["owner"] = "no_such_gate"
                lines.append(json.dumps(rec))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        impl, spec = multi_bug_circuits(2)
        journal = RunJournal("chaos", store_root=store, resume=True)
        with pytest.raises(JournalError,
                           match="no longer applies"):
            rectify(impl, spec, config, journal=journal)


class TestKillAndResumeTable1:
    def test_mid_run_kill_resumes_bit_identical(self, tmp_path):
        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8)

        case = build_case(1)
        baseline = rectify(case.impl, case.spec, config,
                           journal=RunJournal("base", store_root=store))
        assert len(baseline.per_output) >= 4

        case = build_case(1)
        # append 6 is the 4th commit: the run dies with real progress
        # journaled and real work left
        injector = FaultInjector().arm(SITE_JOURNAL, 6,
                                       payload=FAULT_CRASH)
        with pytest.raises(InjectedCrash):
            rectify(case.impl, case.spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store))

        case = build_case(1)
        journal = RunJournal("chaos", store_root=store, resume=True)
        assert len(journal.commits) == 3
        resumed = rectify(case.impl, case.spec, config, journal=journal)
        assert resumed.counters.replayed_commits == 3
        assert_identical_outcome(resumed, baseline, case.spec, tmp_path)

    def test_traced_resume_reports_the_budget_spend(self, tmp_path):
        """The metrics file's budget gauges include the dead run's
        journaled spend, which the resuming process's counters do not.

        Replay re-proves the journaled commits under the run budget,
        so it charges conflicts of its own; the engine then tops the
        budget up to the journaled spend.  The gauge is therefore the
        resumed run's conflicts plus whatever the journal recorded
        beyond what replay spent."""
        from repro.obs import parse_prometheus_text, prometheus_text

        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8)
        case = build_case(1)
        injector = FaultInjector().arm(SITE_JOURNAL, 6,
                                       payload=FAULT_CRASH)
        with pytest.raises(InjectedCrash):
            rectify(case.impl, case.spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store))

        case = build_case(1)
        journal = RunJournal("chaos", store_root=store, resume=True)
        journaled = journal.commits[-1].sat_spent
        assert journaled > 0
        trace = Trace(name="resumed")
        resumed = rectify(case.impl, case.spec, config, journal=journal,
                          trace=trace)
        (replay,) = [s for s in trace.spans if s.name == "eco.resume"]
        replayed = replay.counters.get("sat_conflicts_spent", 0)
        families = parse_prometheus_text(prometheus_text(trace))
        (sample,) = families["repro_sat_conflicts_spent"]["samples"]
        assert sample[2] == resumed.counters.sat_conflicts_spent \
            + max(0, journaled - replayed)
        assert families["repro_sat_conflicts_spent"]["type"] == "gauge"


class TestWorkerChaos:
    @pytest.fixture(autouse=True)
    def _inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")

    def test_injected_worker_death_is_retried(self):
        impl, spec = multi_bug_circuits(4)
        injector = FaultInjector().arm(SITE_WORKER, 1, payload=FAULT_KILL)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=2),
                         injector=injector)
        assert result.counters.worker_deaths == 1
        assert result.counters.tasks_retried == 1
        assert result.counters.outputs_quarantined == 0
        assert result.degraded is False
        assert set(result.per_output) == {f"o{i}" for i in range(4)}
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_repeat_killer_partition_is_quarantined(self):
        impl, spec = multi_bug_circuits(4)
        # dispatch round observes partitions 1 and 2 (ordinals 1, 2);
        # the retry of partition 1 is ordinal 3 — kill it both times
        injector = FaultInjector().arm(SITE_WORKER, (1, 3),
                                       payload=FAULT_KILL)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=2),
                         injector=injector)
        assert result.counters.worker_deaths == 2
        assert result.counters.outputs_quarantined == 2
        assert result.degraded is True
        assert "quarantined" in result.degrade_reason
        # quarantined outputs still complete, via the degraded fallback
        assert sum(1 for how in result.per_output.values()
                   if how == "fallback-degraded") == 2
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_partial_telemetry_survives_quarantine(self):
        """The surviving worker's telemetry outlives the quarantine.

        Telemetry is results-only: the twice-killed partition returns
        nothing, so it leaves its ``worker.died`` and
        ``output.quarantined`` events and no spans, while the surviving
        partition's shipped records are absorbed into the main trace
        and feed its registry — all of it persisted in the run record.
        """
        from repro.obs.store import record_from_result

        impl, spec = multi_bug_circuits(4)
        injector = FaultInjector().arm(SITE_WORKER, (1, 3),
                                       payload=FAULT_KILL)
        trace = Trace(name="chaos")
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2),
                         injector=injector, trace=trace)
        assert result.counters.outputs_quarantined == 2

        (killer,) = {e.tags["targets"] for e in trace.events
                     if e.name == "worker.died"}
        quarantined = sorted(e.tags["port"] for e in trace.events
                             if e.name == "output.quarantined")
        assert quarantined == sorted(killer.split(","))
        assert sorted(port for port, how in result.per_output.items()
                      if how == "fallback-degraded") == quarantined

        (worker,) = [s for s in trace.spans if s.name == "eco.worker"]
        survivors = sorted(set(result.per_output) - set(quarantined))
        assert sorted(worker.tags["targets"].split(",")) == survivors
        parallel = next(s for s in trace.spans if s.name == "eco.parallel")
        assert worker.parent_id == parallel.span_id
        assert not [s for s in trace.spans if s.tags.get("partial")]
        # every sat.validate span, the absorbed ones included, is
        # observed exactly once
        sat_spans = [s for s in trace.spans if s.name == "sat.validate"]
        assert sat_spans
        sat = trace.metrics.histograms()["repro_sat_call_seconds"]
        assert sat.count == len(sat_spans)

        record = record_from_result(result, trace=trace, name="chaos")
        assert record.events.get("output.quarantined") == 2
        assert record.events.get("worker.died") == 2
        assert "worker.partial_telemetry" not in record.events
        assert any("eco.worker" in row["phase"] for row in record.phases)
        assert "repro_sat_call_seconds" in record.histograms

    def test_worker_kill_then_host_kill_then_resume(self, tmp_path):
        """The full gauntlet: a worker dies and is retried, then the
        main process dies mid-journal, then the run resumes clean."""
        store = str(tmp_path / "store")
        config = EcoConfig(num_samples=8, jobs=2)
        impl, spec = multi_bug_circuits(4)
        baseline = rectify(impl, spec, config,
                           journal=RunJournal("base", store_root=store))

        impl, spec = multi_bug_circuits(4)
        injector = (FaultInjector()
                    .arm(SITE_WORKER, 1, payload=FAULT_KILL)
                    .arm(SITE_JOURNAL, 4, payload=FAULT_CRASH))
        with pytest.raises(InjectedCrash):
            rectify(impl, spec, config, injector=injector,
                    journal=RunJournal("chaos", store_root=store))

        impl, spec = multi_bug_circuits(4)
        resumed = rectify(impl, spec, config,
                          journal=RunJournal("chaos", store_root=store,
                                             resume=True))
        assert resumed.per_output == baseline.per_output
        assert check_equivalence(resumed.patched, spec).equivalent is True


class TestOneThreadUnderChaos:
    def test_crashed_run_starts_no_thread(self, tmp_path, monkeypatch):
        counts = []
        real = RunSupervisor.checkpoint

        def spy(self):
            counts.append(threading.active_count())
            return real(self)

        monkeypatch.setattr(RunSupervisor, "checkpoint", spy)
        impl, spec = multi_bug_circuits(2)
        injector = FaultInjector().arm(SITE_JOURNAL, 3,
                                       payload=FAULT_CRASH)
        journal = RunJournal("leak", store_root=str(tmp_path / "store"))
        trace = Trace(name="chaos")
        with pytest.raises(InjectedCrash):
            rectify(impl, spec, EcoConfig(num_samples=8),
                    injector=injector, trace=trace, journal=journal)
        assert counts and set(counts) == {1}
        assert threading.active_count() == 1
