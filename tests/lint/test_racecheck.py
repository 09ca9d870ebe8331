"""Tests for the seeded race-fuzzing harness (``repro.lint.racecheck``)."""

import sys

import pytest

from repro.lint.racecheck import (
    ALL_TARGET,
    SCENARIOS,
    race_targets,
    run_racecheck,
)
from repro.runtime.sync import sync_debug_enabled


# module-level hooks for the dotted-path target tests -----------------
def clean_callable():
    return None


def failing_callable():
    return ["invariant broke"]


@pytest.fixture(autouse=True)
def _no_debug_leak():
    before = sync_debug_enabled()
    yield
    assert sync_debug_enabled() == before, \
        "racecheck leaked the sync-debug state"


class TestResolution:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            run_racecheck("no-such-scenario")

    def test_bad_dotted_path_rejected(self):
        with pytest.raises(ValueError):
            run_racecheck("tests.lint.test_racecheck:missing")

    def test_targets_listing(self):
        names = dict(race_targets())
        assert ALL_TARGET in names
        assert set(SCENARIOS) <= set(names)


class TestScenarios:
    def test_metrics_scenario_clean(self):
        result = run_racecheck("metrics", runs=2, seed=11)
        assert result.ok
        assert result.acquisitions > 0
        assert result.graph["enabled"]

    def test_store_scenario_clean(self):
        assert run_racecheck("store", runs=1, seed=11).ok

    def test_inversion_reproduced_with_stacks(self):
        result = run_racecheck("inversion", runs=1, seed=11)
        assert result.ok
        reproduced = [d for d in result.report.diagnostics
                      if d.code == "RC005"]
        assert reproduced
        hint = reproduced[0].hint or ""
        # both conflicting acquisition orders, each with a stack
        assert hint.count("thread") >= 2
        assert "racecheck.py" in hint
        assert result.graph["violations"]
        violation = result.graph["violations"][0]
        assert len(violation["edges"]) == 2
        assert all(e["stack"] for e in violation["edges"])

    def test_detector_regression_is_an_error(self, monkeypatch):
        # cripple the inversion scenario: the harness must notice the
        # silence and fail with RC004 rather than pass vacuously
        inert = SCENARIOS["inversion"].__class__(
            "inversion", "doc", lambda rng: [], expect_violation=True)
        monkeypatch.setitem(SCENARIOS, "inversion", inert)
        result = run_racecheck("inversion", runs=1, seed=11)
        assert not result.ok
        assert "RC004" in [d.code for d in result.report.diagnostics]


class TestDottedTargets:
    def test_clean_callable_passes(self):
        result = run_racecheck(
            "tests.lint.test_racecheck:clean_callable", runs=1, seed=3)
        assert result.ok

    def test_failures_become_rc001(self):
        result = run_racecheck(
            "tests.lint.test_racecheck:failing_callable",
            runs=2, seed=3)
        assert not result.ok
        rc001 = [d for d in result.report.diagnostics
                 if d.code == "RC001"]
        assert len(rc001) == 2  # one per seeded run
        assert "invariant broke" in rc001[0].message


class TestHarnessHygiene:
    def test_switch_interval_restored(self):
        before = sys.getswitchinterval()
        run_racecheck("inversion", runs=1, seed=5)
        assert sys.getswitchinterval() == before

    def test_seed_determinism(self):
        a = run_racecheck("inversion", runs=2, seed=42)
        b = run_racecheck("inversion", runs=2, seed=42)
        assert [d.code for d in a.report.diagnostics] \
            == [d.code for d in b.report.diagnostics]
