"""Tests for the sync-tracing runtime (``repro.runtime.sync``)."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runtime.faultinject import FaultInjector
from repro.runtime.sync import (
    SITE_SYNC,
    SYNC_DEBUG_ENV,
    TracedLock,
    TracedRLock,
    disable_sync_debug,
    enable_sync_debug,
    make_event,
    make_lock,
    make_rlock,
    make_thread,
    safe_mp_context,
    sync_debug_enabled,
    sync_graph,
    sync_state,
    sync_violations,
)


@pytest.fixture
def debug():
    """Enabled sync debugging, cleanly torn down."""
    state = enable_sync_debug()
    state.reset()
    yield state
    disable_sync_debug()


@pytest.fixture(autouse=True)
def _always_disable():
    yield
    disable_sync_debug()


class TestFactories:
    def test_disabled_returns_bare_primitives(self):
        disable_sync_debug()  # the session may run REPRO_SYNC_DEBUG=1
        assert not sync_debug_enabled()
        assert isinstance(make_lock("t"), type(threading.Lock()))
        assert isinstance(make_rlock("t"), type(threading.RLock()))
        assert isinstance(make_event("t"), threading.Event)

    def test_enabled_returns_traced_wrappers(self, debug):
        assert isinstance(make_lock("t"), TracedLock)
        assert isinstance(make_rlock("t"), TracedRLock)

    def test_construction_time_decision(self, debug):
        lock = make_lock("t")
        disable_sync_debug()
        # a lock built while tracing was on keeps working after
        with lock:
            pass

    def test_make_thread_always_named(self):
        seen = []
        t = make_thread(lambda: seen.append(1), name="sync-test")
        t.start()
        t.join(timeout=5.0)
        assert seen == [1]
        assert t.name == "sync-test"
        assert not t.daemon


class TestLockSemantics:
    def test_context_manager_and_locked(self, debug):
        lock = make_lock("t")
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_rlock_reentrant(self, debug):
        lock = make_rlock("t")
        with lock:
            with lock:
                pass
        assert sync_violations() == ()

    def test_event_wait(self, debug):
        event = make_event("t")
        assert not event.is_set()
        event.set()
        assert event.wait(timeout=1.0)
        event.clear()
        assert not event.wait(timeout=0.01)


class TestLockOrderGraph:
    def test_ordered_nesting_no_violation(self, debug):
        a, b = make_lock("A"), make_lock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert sync_violations() == ()
        graph = sync_graph()
        assert graph["enabled"]
        assert ("A", "B") in {(e["src"], e["dst"])
                              for e in graph["edges"]}

    def test_inversion_detected_with_both_stacks(self, debug):
        a, b = make_lock("inv.A"), make_lock("inv.B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        violations = sync_violations()
        assert len(violations) == 1
        v = violations[0]
        assert set(v.cycle) == {"inv.A", "inv.B"}
        # the closing edge and the return path both carry stacks
        assert len(v.edges) == 2
        assert all(e.stack for e in v.edges)
        orders = {(e.src, e.dst) for e in v.edges}
        assert orders == {("inv.A", "inv.B"), ("inv.B", "inv.A")}
        rendered = v.render()
        assert rendered.count("thread") >= 2
        assert "test_sync.py" in rendered

    def test_duplicate_cycle_reported_once(self, debug):
        a, b = make_lock("dup.A"), make_lock("dup.B")
        for _ in range(3):
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert len(sync_violations()) == 1

    def test_same_name_locks_add_no_edges(self, debug):
        # shards share a role name; nesting them is not an ordering
        a, b = make_lock("shard"), make_lock("shard")
        with a:
            with b:
                pass
        assert sync_graph()["edges"] == []

    def test_graph_disabled_shape(self):
        disable_sync_debug()  # the session may run REPRO_SYNC_DEBUG=1
        graph = sync_graph()
        assert graph == {"enabled": False, "locks": [],
                         "acquisitions": 0, "edges": [],
                         "violations": []}


class TestMetricsAndJitter:
    def test_wait_histogram_fed(self, debug):
        registry = MetricsRegistry()
        debug.set_registry(registry)
        lock = make_lock("histo")
        with lock:
            pass
        series = registry.series("repro_sync_lock_wait_seconds")
        assert series
        assert sum(s.count for s in series) >= 1
        assert any(("lock", "histo") in s.labels for s in series)

    def test_jitter_injector_observed(self, debug):
        injector = FaultInjector()
        injector.arm(SITE_SYNC, 1, payload=0.0)
        debug.set_jitter(injector)
        lock = make_lock("jit")
        with lock:
            pass
        debug.set_jitter(None)
        assert injector.calls(SITE_SYNC) >= 1
        assert len(injector.fired) == 1


class TestEnvBootstrap:
    def test_env_enables(self):
        import subprocess
        import sys
        from pathlib import Path

        # the checkout's own src/, whatever directory the suite runs in
        src = Path(__file__).resolve().parents[2] / "src"
        code = ("import repro.runtime.sync as sync; "
                "print(sync.sync_debug_enabled(), sync.__file__)")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src), SYNC_DEBUG_ENV: "1"},
            capture_output=True, text=True)
        enabled, module = out.stdout.split()
        assert enabled == "True"
        assert Path(module).resolve().is_relative_to(src)

    def test_enable_is_idempotent(self, debug):
        assert enable_sync_debug() is sync_state()


class TestSafeMpContext:
    def test_returns_context_with_pool_support(self):
        ctx = safe_mp_context()
        assert ctx.get_start_method() in ("fork", "spawn", "forkserver")

    def test_spawn_when_threads_alive(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        stop = make_event("mp-test")
        t = make_thread(lambda: stop.wait(timeout=10.0),
                        name="mp-probe", daemon=True)
        t.start()
        try:
            assert safe_mp_context().get_start_method() != "fork"
        finally:
            stop.set()
            t.join(timeout=5.0)
