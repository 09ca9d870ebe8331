"""Unit tests for the deterministic fault-injection harness."""

import dataclasses

import pytest

from repro.runtime import (
    FaultInjector,
    InjectedClock,
    RunCounters,
    SITE_BDD,
    SITE_CLOCK,
    SITE_SAT,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def now(self) -> float:
        return self.t


class TestFaultInjector:
    def test_fires_exactly_at_the_nth_call(self):
        injector = FaultInjector().arm(SITE_SAT, 3, payload="unknown")
        assert injector.observe(SITE_SAT) is None
        assert injector.observe(SITE_SAT) is None
        fault = injector.observe(SITE_SAT)
        assert fault is not None and fault.payload == "unknown"
        assert injector.observe(SITE_SAT) is None
        assert injector.calls(SITE_SAT) == 4

    def test_sites_count_independently(self):
        injector = FaultInjector().arm(SITE_BDD, 1)
        assert injector.observe(SITE_SAT) is None
        assert injector.observe(SITE_BDD) is not None

    def test_ordinal_lists(self):
        injector = FaultInjector().arm(SITE_SAT, [1, 3])
        hits = [injector.observe(SITE_SAT) is not None for _ in range(4)]
        assert hits == [True, False, True, False]

    def test_fired_records_order(self):
        injector = FaultInjector()
        injector.arm(SITE_SAT, 2, payload="a").arm(SITE_BDD, 1, payload="b")
        injector.observe(SITE_BDD)
        injector.observe(SITE_SAT)
        injector.observe(SITE_SAT)
        assert [f.payload for f in injector.fired] == ["b", "a"]

    def test_ordinals_are_one_based(self):
        with pytest.raises(ValueError):
            FaultInjector().arm(SITE_SAT, 0)


class TestInjectedClock:
    def test_jump_is_persistent(self):
        base = FakeClock(100.0)
        injector = FaultInjector().arm(SITE_CLOCK, 2, payload=50.0)
        clock = InjectedClock(base, injector)
        assert clock.now() == pytest.approx(100.0)
        assert clock.now() == pytest.approx(150.0)  # jump fires here
        assert clock.now() == pytest.approx(150.0)  # ... and persists

    def test_without_injector_tracks_base(self):
        base = FakeClock(7.0)
        clock = InjectedClock(base)
        assert clock.now() == pytest.approx(7.0)
        base.t = 9.0
        assert clock.now() == pytest.approx(9.0)


class TestRunCounters:
    def test_mapping_protocol(self):
        counters = RunCounters(choices=5, sat_validations=2)
        assert counters.as_dict()["sat_validations"] == 2
        assert counters.nonzero() == {"choices": 5, "sat_validations": 2}

    def test_as_dict_is_an_ordered_copy_of_the_fields(self):
        counters = RunCounters(choices=5, sat_validations=2,
                               bdd_nodes_spent=7)
        walked = {f.name: getattr(counters, f.name)
                  for f in dataclasses.fields(counters)}
        snapshot = counters.as_dict()
        assert list(snapshot.items()) == list(walked.items())
        snapshot["choices"] = 99
        counters.fallbacks += 1
        assert counters.choices == 5
        assert snapshot["fallbacks"] == 0
