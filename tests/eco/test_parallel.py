"""Parallel per-output search: partitioning, merge, telemetry absorb.

Most multi-worker tests run with ``REPRO_ECO_JOBS_INLINE=1`` so the
worker loop executes in-process (same code path minus the pool), which
keeps partitioning, budget shares, counter merges and trace grafting
deterministic.  The process-pool tests exercise the real
:mod:`concurrent.futures` pool end to end: search, death attribution
and executor teardown.
"""

import threading

import pytest

from repro.cec.equivalence import check_equivalence
from repro.errors import ResourceBudgetExceeded
from repro.netlist.circuit import Circuit
from repro.obs.trace import Trace
from repro.runtime.faultinject import (
    FAULT_EXHAUST,
    FAULT_KILL,
    SITE_SAT,
    SITE_WORKER,
    FaultInjector,
)
from repro.runtime.supervisor import RunSupervisor
from repro.eco import parallel
from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco, rectify
from repro.eco.parallel import parallel_verify, partition_targets


def multi_bug_circuits(k=4):
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


class TestPartitioning:
    def test_round_robin_deal(self):
        groups = partition_targets(["a", "b", "c", "d", "e"], 2)
        assert groups == [["a", "c", "e"], ["b", "d"]]

    def test_more_jobs_than_outputs_drops_empty_groups(self):
        groups = partition_targets(["a", "b"], 4)
        assert groups == [["a"], ["b"]]

    def test_budget_shares_reserve_one_for_main(self):
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=100))
        shares, _reserve = run.partition_shares(3)
        assert all(s["total_sat_budget"] == 100 // 4 for s in shares)

    def test_unlimited_budgets_stay_unlimited(self):
        run = RunSupervisor.from_config(EcoConfig())
        shares, _reserve = run.partition_shares(2)
        assert all(s["total_sat_budget"] is None for s in shares)

    @pytest.mark.parametrize("total,jobs", [
        (100, 3), (100, 4), (7, 3), (101, 2), (997, 16),
    ])
    def test_partition_shares_sum_exactly(self, total, jobs):
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=total))
        shares, reserve = run.partition_shares(jobs)
        assert len(shares) == jobs
        granted = [s["total_sat_budget"] for s in shares]
        # the division remainder lands in the reserve: no conflict of
        # the parent budget is lost or double-granted
        assert sum(granted) + reserve["total_sat_budget"] == total
        assert all(g >= 1 for g in granted)
        assert reserve["total_sat_budget"] >= min(granted)

    def test_partition_shares_tiny_budget_floors_at_one(self):
        # budgets below jobs+1 cannot split exactly (configs reject
        # zero): each worker gets the floor of 1, the reserve clamps
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=2))
        shares, reserve = run.partition_shares(3)
        assert [s["total_sat_budget"] for s in shares] == [1, 1, 1]
        assert reserve["total_sat_budget"] == 0

    def test_partition_shares_track_spent_budget(self):
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=100))
        run.budget.charge_sat(40)
        shares, reserve = run.partition_shares(2)
        assert sum(s["total_sat_budget"] for s in shares) \
            + reserve["total_sat_budget"] == 60

    def test_partition_shares_unlimited_stay_unlimited(self):
        run = RunSupervisor.from_config(EcoConfig())
        shares, reserve = run.partition_shares(2)
        assert all(s["total_sat_budget"] is None for s in shares)
        assert reserve["total_sat_budget"] is None


class TestTelemetryMerge:
    def test_absorb_worker_adds_counters_and_charges_budget(self):
        run = RunSupervisor.from_config(EcoConfig(total_sat_budget=1000))
        run.counters.choices = 5
        run.absorb_worker({"choices": 7, "incremental_solves": 3,
                           "sat_conflicts_spent": 40,
                           "not_a_counter": 99})
        assert run.counters.choices == 12
        assert run.counters.incremental_solves == 3
        assert run.counters.parallel_workers == 1
        assert run.budget.sat_remaining() == 1000 - 40

    def test_absorb_worker_skips_names_that_are_not_counters(self):
        run = RunSupervisor.from_config(EcoConfig())
        expected = run.counters.as_dict()
        expected["parallel_workers"] += 1
        # method names are attributes of RunCounters but not counters
        run.absorb_worker({"not_a_counter": 99, "as_dict": 1,
                           "nonzero": 2})
        assert run.counters.as_dict() == expected

    def test_absorb_worker_propagates_degradation(self):
        run = RunSupervisor.from_config(EcoConfig())
        run.absorb_worker({}, degraded=True, degrade_reason="worker hit "
                          "deadline")
        assert run.degraded is True
        assert "deadline" in run.degrade_reason

    def test_trace_absorb_grafts_under_open_span(self):
        worker = Trace(name="worker")
        with worker.span("eco.worker", targets="o1"):
            worker.event("eco.commit", output="o1")
            with worker.span("eco.output", output="o1"):
                pass
        records = worker.records()

        parent = Trace(name="main")
        with parent.span("eco.parallel") as sp:
            parent.absorb(records, offset_s=1.5)
        assert sp.t_end is not None
        names = {s.name for s in parent.spans}
        assert {"eco.parallel", "eco.worker", "eco.output"} <= names
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        grafted = {s.name: s for s in parent.spans if s is not sp}
        # worker roots hang under the open parallel span; children keep
        # their worker-relative parent links (re-based ids)
        assert grafted["eco.worker"].parent_id == sp.span_id
        assert grafted["eco.output"].parent_id \
            == grafted["eco.worker"].span_id
        assert grafted["eco.worker"].t_start >= 1.5
        event = next(e for e in parent.events if e.name == "eco.commit")
        assert event.span_id == grafted["eco.worker"].span_id


class TestInlineParallelSearch:
    @pytest.fixture(autouse=True)
    def _inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")

    def test_two_workers_fix_all_outputs(self):
        impl, spec = multi_bug_circuits(4)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=2))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert set(result.per_output) == {f"o{i}" for i in range(4)}
        assert result.counters.parallel_workers == 2

    def test_matches_sequential_outcome(self):
        impl, spec = multi_bug_circuits(3)
        parallel = rectify(impl, spec,
                           EcoConfig(num_samples=8, jobs=2, seed=5))
        sequential = rectify(impl, spec,
                             EcoConfig(num_samples=8, jobs=1, seed=5))
        assert check_equivalence(parallel.patched,
                                 spec).equivalent is True
        assert check_equivalence(sequential.patched,
                                 spec).equivalent is True
        assert set(parallel.per_output) == set(sequential.per_output)
        assert sequential.counters.parallel_workers == 0

    def test_jobs_capped_by_failing_outputs(self):
        impl, spec = multi_bug_circuits(2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=8))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert result.counters.parallel_workers == 2

    def test_strict_budget_exhaustion_raises(self):
        impl, spec = multi_bug_circuits(3)
        with pytest.raises(ResourceBudgetExceeded):
            rectify(impl, spec,
                    EcoConfig(num_samples=8, jobs=2, total_sat_budget=1,
                              degrade_on_budget=False))

    def test_single_failing_output_skips_parallel_phase(self):
        impl, spec = multi_bug_circuits(1)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=4))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert result.counters.parallel_workers == 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_budget_spent_during_merge_degrades(self, k, monkeypatch):
        # the k-th supervised query of the main process is a merge
        # replay: the commits replayed before it stand, and only the
        # outputs still failing are force-completed
        impl, spec = multi_bug_circuits(4)
        commits = []
        real_commit = SysEco._commit

        def spy(work, *args):
            commits.append((work, args[1]))  # args: spec, port, ...
            return real_commit(work, *args)

        monkeypatch.setattr(SysEco, "_commit", staticmethod(spy))
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2),
                         injector=FaultInjector().arm(
                             SITE_SAT, k, payload=FAULT_EXHAUST))
        assert result.degraded is True
        assert check_equivalence(result.patched, spec).equivalent is True
        ports = [port for work, port in commits if work is result.patched]
        assert sorted(ports) == sorted(set(ports))
        assert "rewire" in result.per_output.values()
        assert "fallback-degraded" in result.per_output.values()

    def test_worker_leaves_the_dispatched_circuit_unchanged(self):
        # an inline worker receives the main process's circuit itself
        impl, spec = multi_bug_circuits(2)
        gates = {k: g.copy() for k, g in impl.gates.items()}
        outputs = dict(impl.outputs)
        result = parallel._run_worker(
            (impl, spec, EcoConfig(num_samples=8), ["o0", "o1"], ["o0"],
             False))
        assert [port for port, _how, _ops in result.commits] == ["o0"]
        assert impl.gates == gates
        assert impl.outputs == outputs


class TestParallelVerify:
    @pytest.fixture(autouse=True)
    def _inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")

    def test_equivalent_pair_proves_true(self):
        impl, spec = multi_bug_circuits(4)
        assert parallel_verify(spec, spec.copy(), jobs=2).equivalent is True

    def test_nonequivalent_pair_returns_counterexample(self):
        from repro.netlist.simulate import evaluate_outputs

        impl, spec = multi_bug_circuits(4)
        result = parallel_verify(impl, spec, jobs=2)
        assert result.equivalent is False
        assert result.failing_outputs
        port = result.failing_outputs[0]
        iv = evaluate_outputs(impl, result.counterexample)
        sv = evaluate_outputs(spec, result.counterexample)
        assert iv[port] != sv[port]

    def test_single_output_falls_back_to_plain_check(self):
        impl, spec = multi_bug_circuits(1)
        result = parallel_verify(impl, spec, jobs=4)
        assert result.equivalent is False
        assert result.failing_outputs == ("o0",)

    def test_matches_sequential_verdict(self):
        impl, spec = multi_bug_circuits(3)
        assert (parallel_verify(impl, spec, jobs=2).equivalent
                == check_equivalence(impl, spec).equivalent)


class TestProcessPoolSearch:
    def test_real_pool_fixes_all_outputs(self, monkeypatch):
        monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)
        impl, spec = multi_bug_circuits(3)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, jobs=2))
        assert check_equivalence(result.patched, spec).equivalent is True
        assert set(result.per_output) == {"o0", "o1", "o2"}
        # the pool may be unavailable in restricted sandboxes, in which
        # case the engine falls back to the sequential loop
        assert result.counters.parallel_workers in (0, 2)


class TestDeadlineBeforeDispatch:
    @pytest.mark.parametrize("inline", ["1", None], ids=["inline", "pool"])
    def test_spent_deadline_degrades_like_sequential(self, monkeypatch,
                                                    inline):
        # the deadline passes before the parallel phase: nothing is
        # dispatched and the sequential loop degrades every output
        if inline:
            monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", inline)
        else:
            monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)
        impl, spec = multi_bug_circuits(4)
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2,
                                               deadline_s=1e-6))
        assert result.degraded is True
        assert result.counters.parallel_workers == 0
        assert set(result.per_output.values()) == {"fallback-degraded"}
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_retry_without_time_left_is_quarantined(self, monkeypatch):
        monkeypatch.setenv("REPRO_ECO_JOBS_INLINE", "1")
        injector = FaultInjector().arm(SITE_WORKER, 1, payload=FAULT_KILL)
        run = RunSupervisor.from_config(EcoConfig(), injector=injector)
        # time is left for the first round, none for the retry
        time_left = iter([30.0, 0.0])
        monkeypatch.setattr(run.budget, "time_left",
                            lambda: next(time_left))
        impl, spec = multi_bug_circuits(2)
        failing = ["o0", "o1"]
        payloads = [(impl, spec, EcoConfig(num_samples=8), failing, [port])
                    for port in failing]
        results = parallel._run_partitions(payloads, run, inline=True)
        assert results[0] is None
        assert results[1].targets == ("o1",)
        assert list(run.quarantined) == ["o0"]
        assert "deadline" in run.quarantined["o0"]
        assert run.counters.worker_deaths == 1
        assert run.counters.tasks_retried == 0


class TestProcessPoolSupervision:
    """Real processes, one single-worker executor per partition: a
    death is charged to the partition whose worker died, never to its
    neighbour."""

    @pytest.fixture(autouse=True)
    def _real_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)

    def run_killing(self, ordinals):
        impl, spec = multi_bug_circuits(4)
        trace = Trace(name="pool-chaos")
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2),
                         injector=FaultInjector().arm(
                             SITE_WORKER, ordinals, payload=FAULT_KILL),
                         trace=trace)
        if any(e.name == "eco.parallel_fallback" for e in trace.events):
            pytest.skip("process pools are unavailable here")
        assert check_equivalence(result.patched, spec).equivalent is True
        return result, trace

    def test_killed_worker_is_retried(self):
        result, _ = self.run_killing(1)
        counters = result.counters
        assert counters.worker_deaths == 1
        assert counters.tasks_retried == 1
        assert counters.outputs_quarantined == 0
        assert counters.parallel_workers == 2
        assert result.degraded is False

    def test_repeat_killer_quarantines_only_its_outputs(self):
        result, trace = self.run_killing((1, 3))
        (killer,) = {e.tags["targets"] for e in trace.events
                     if e.name == "worker.died"}
        quarantined = sorted(e.tags["port"] for e in trace.events
                             if e.name == "output.quarantined")
        assert result.counters.worker_deaths == 2
        assert result.counters.outputs_quarantined == 2
        assert result.counters.parallel_workers == 1
        assert quarantined == sorted(killer.split(","))
        assert sorted(port for port, how in result.per_output.items()
                      if how == "fallback-degraded") == quarantined

    def test_no_pool_thread_outlives_parallel_repair(self, monkeypatch):
        # a leftover executor thread would make the next
        # safe_mp_context() (parallel_verify's) pick spawn over fork
        before = set(threading.enumerate())
        leftover = []
        real = parallel.parallel_repair

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            leftover.extend(t.name for t in threading.enumerate()
                            if t not in before)
            return out

        monkeypatch.setattr(parallel, "parallel_repair", spy)
        impl, spec = multi_bug_circuits(4)
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2))
        assert result.counters.parallel_workers in (0, 2)
        assert leftover == []


class TestSafeMpContext:
    def test_returns_context_with_pool_support(self):
        ctx = parallel.safe_mp_context()
        assert ctx.get_start_method() in ("fork", "spawn", "forkserver")

    def test_spawn_when_threads_alive(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        stop = threading.Event()
        t = threading.Thread(target=lambda: stop.wait(timeout=10.0),
                             name="mp-probe", daemon=True)
        t.start()
        try:
            assert parallel.safe_mp_context().get_start_method() != "fork"
        finally:
            stop.set()
            t.join(timeout=5.0)
        assert not t.is_alive()


class TestTracedPoolForks:
    def test_traced_run_forks_both_pools(self, monkeypatch):
        # a traced run starts no thread, so the repair partitions and
        # parallel_verify both keep the fast fork start method
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        monkeypatch.delenv("REPRO_ECO_JOBS_INLINE", raising=False)
        methods = []
        real = parallel.safe_mp_context

        def spy():
            ctx = real()
            methods.append(ctx.get_start_method())
            return ctx

        monkeypatch.setattr(parallel, "safe_mp_context", spy)
        impl, spec = multi_bug_circuits(4)
        trace = Trace(name="traced-pool")
        result = rectify(impl, spec, EcoConfig(num_samples=8, jobs=2),
                         trace=trace)
        if any(e.name == "eco.parallel_fallback" for e in trace.events):
            pytest.skip("process pools are unavailable here")
        assert check_equivalence(result.patched, spec).equivalent is True
        assert methods == ["fork", "fork"]
