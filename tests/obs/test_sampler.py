"""Sampler tests: timelines, checkpoint ticks, stall detection, and the
no-op path."""

import logging
import threading

from repro.eco.config import EcoConfig
from repro.obs.sampler import (
    RunSampler,
    SAMPLE_EVENT,
    STALL_EVENT,
    STALL_WINDOW_S,
    TICK_INTERVAL_S,
    maybe_sampler,
)
from repro.obs.trace import NULL_TRACE, Trace
from repro.runtime.supervisor import RunSupervisor


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class FakeCounters:
    def __init__(self):
        self.values = {}

    def as_dict(self):
        return dict(self.values)


def sample_events(trace):
    return [e for e in trace.events if e.name == SAMPLE_EVENT]


def stall_events(trace):
    return [e for e in trace.events if e.name == STALL_EVENT]


class TestSampling:
    def test_start_stop_snapshots_without_thread(self):
        trace = Trace(name="t")
        with trace.span("root"):
            sampler = RunSampler(trace)
            sampler.start()
            sampler.stop()
        samples = sample_events(trace)
        assert len(samples) == 2
        assert [e.tags["seq"] for e in samples] == [1, 2]

    def test_counters_and_bdd_stats_embedded(self):
        trace = Trace(name="t")
        counters = FakeCounters()
        nodes = {"n": 0}
        clock = FakeClock()
        sampler = RunSampler(
            trace, counters=counters,
            bdd_stats=lambda: {"bdd_nodes": nodes["n"]}, clock=clock)
        with trace.span("root"):
            sampler.start()
            counters.values = {"sat_conflicts_spent": 7, "zero": 0}
            nodes["n"] = 120
            clock.t = TICK_INTERVAL_S
            sampler.tick()
            nodes["n"] = 450
            sampler.stop()
        samples = sample_events(trace)
        series = [e.tags["bdd_nodes"] for e in samples]
        assert series == [0, 120, 450]
        assert series == sorted(series)  # monotone timeline
        assert samples[1].tags["sat_conflicts_spent"] == 7
        assert "zero" not in samples[1].tags  # zeros are elided

    def test_context_manager(self):
        trace = Trace(name="t")
        with trace.span("root"):
            with RunSampler(trace):
                pass
        assert len(sample_events(trace)) == 2

    def test_tick_samples_only_after_the_interval(self):
        clock = FakeClock()
        trace = Trace(name="t")
        sampler = RunSampler(trace, clock=clock)
        with trace.span("root"):
            sampler.start()
            clock.t = TICK_INTERVAL_S * 0.9
            sampler.tick()          # under 50 ms: no snapshot
            assert len(sample_events(trace)) == 1
            clock.t = TICK_INTERVAL_S
            sampler.tick()          # 50 ms since the start snapshot
            assert len(sample_events(trace)) == 2
            sampler.tick()          # the interval restarts
            assert len(sample_events(trace)) == 2
            sampler.stop()
            sampler.tick()          # stopped: ticks do nothing
        assert len(sample_events(trace)) == 3

    def test_failing_snapshot_is_logged_once_and_ends_sampling(
            self, caplog):
        class ExplodingTrace:
            progress = 0
            enabled = True
            fail = False
            emitted = 0

            def event(self, name, **tags):
                if self.fail:
                    raise ValueError("exporter broke")
                self.emitted += 1

        clock = FakeClock()
        trace = ExplodingTrace()
        sampler = RunSampler(trace, clock=clock)
        sampler.start()
        trace.fail = True
        with caplog.at_level(logging.ERROR, logger="repro.obs"):
            for step in range(1, 5):
                clock.t = step * TICK_INTERVAL_S
                sampler.tick()      # first tick raises, the rest skip
            sampler.stop()          # no final snapshot either
        trace.fail = False
        clock.t = 10.0
        sampler.tick()
        assert trace.emitted == 1
        failures = [r for r in caplog.records
                    if "telemetry sampling failed" in r.getMessage()]
        assert len(failures) == 1


class TestStallDetector:
    def test_fires_once_and_rearms_on_progress(self):
        clock = FakeClock()
        trace = Trace(name="t")
        sampler = RunSampler(trace, clock=clock)
        with trace.span("root"):
            sampler.start()
            clock.t = 1.0
            sampler.tick()          # first check records the progress
            clock.t = STALL_WINDOW_S * 0.5
            sampler.tick()          # idle < window: no stall
            assert not stall_events(trace)
            clock.t = 1.0 + STALL_WINDOW_S
            sampler.tick()          # idle >= window: stall fires
            clock.t += STALL_WINDOW_S
            sampler.tick()          # still stalled: no duplicate
            assert len(stall_events(trace)) == 1
            (stall,) = stall_events(trace)
            assert stall.tags["idle_s"] >= STALL_WINDOW_S
            assert stall.tags["window_s"] == STALL_WINDOW_S
            assert "--deadline" in stall.tags["hint"]
            with trace.span("work"):  # span progress re-arms
                pass
            clock.t += 1.0
            sampler.tick()
            assert len(stall_events(trace)) == 1
            clock.t += STALL_WINDOW_S
            sampler.tick()          # a second silent window fires again
            assert len(stall_events(trace)) == 2
            sampler.stop()

    def test_progress_resets_idle_clock(self):
        clock = FakeClock()
        trace = Trace(name="t")
        sampler = RunSampler(trace, clock=clock)
        with trace.span("root"):
            sampler.start()
            for step in range(1, 5):
                clock.t = step * STALL_WINDOW_S * 0.6
                with trace.span("step"):
                    pass
                sampler.tick()
            assert not stall_events(trace)
            sampler.stop()

    def test_bdd_blowup_stalls_through_node_hook_alone(self):
        # a BDD blowup inside one session opens and finishes no span:
        # only the manager's node hook reaches the supervisor
        clock = FakeClock()
        trace = Trace(name="t")
        run = RunSupervisor.from_config(EcoConfig(), trace=trace)
        run.sampler = RunSampler(trace, clock=clock).start()
        with trace.span("root"):
            for step in range(1, 40):
                clock.t = step * 1.0
                run.node_hook(step * 4096)
            assert len(stall_events(trace)) == 1
            with trace.span("next-output"):
                pass
            for step in range(40, 80):
                clock.t = step * 1.0
                run.node_hook(step * 4096)
        assert len(stall_events(trace)) == 2
        # one snapshot per hook call here: each is >= 50 ms apart
        assert len(sample_events(trace)) == 1 + 79


class TestNoopPath:
    def test_maybe_sampler_is_none_for_null_trace(self):
        assert maybe_sampler(NULL_TRACE) is None
        assert maybe_sampler(None) is None

    def test_maybe_sampler_builds_for_enabled_trace(self):
        trace = Trace(name="t")
        sampler = maybe_sampler(trace)
        assert isinstance(sampler, RunSampler)

    def test_untraced_run_starts_no_thread(self):
        """The NULL_TRACE path allocates no sampler and no thread."""
        before = threading.active_count()
        assert maybe_sampler(NULL_TRACE) is None
        assert threading.active_count() == before
