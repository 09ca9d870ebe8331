"""Tests for the scaled Table-1/2/3 suites."""

import pytest

from repro.cec.equivalence import nonequivalent_outputs
from repro.lint.netlist_rules import lint_netlist
from repro.workloads.figures import example1_circuits, figure1_circuits
from repro.workloads.suite import build_case, build_suite, build_timing_case
from repro.errors import ReproError


# small, fast-to-build representatives of the suite
FAST_CASES = [2, 4, 5, 8, 9, 10]


@pytest.mark.parametrize("cid", FAST_CASES)
def test_case_builds_and_differs(cid):
    case = build_case(cid)
    assert case.case_id == cid
    assert lint_netlist(case.impl, deep=False).ok
    assert lint_netlist(case.spec, deep=False).ok
    failing = nonequivalent_outputs(case.impl, case.spec)
    assert failing, "revision must be observable"
    assert case.designer_estimate >= 1


@pytest.mark.parametrize("cid", FAST_CASES)
def test_case_interfaces_correspond(cid):
    case = build_case(cid)
    assert set(case.spec.inputs) <= set(case.impl.inputs)
    assert set(case.impl.outputs) == set(case.spec.outputs)


def test_case_is_reproducible():
    a = build_case(2)
    b = build_case(2)
    assert a.impl.gates.keys() == b.impl.gates.keys()
    assert a.revision.description == b.revision.description


def test_unknown_case_rejected():
    with pytest.raises(ReproError):
        build_case(99)
    with pytest.raises(ReproError):
        build_timing_case(1)


def test_build_suite_subset():
    cases = build_suite(ids=[2, 5])
    assert [c.case_id for c in cases] == [2, 5]


def test_timing_cases_build():
    for cid in (12, 15):
        case = build_timing_case(cid)
        assert lint_netlist(case.impl, deep=False).ok
        assert nonequivalent_outputs(case.impl, case.spec)


class TestFigureCircuits:
    def test_figure1_shape(self):
        impl, spec = figure1_circuits(width=3)
        assert lint_netlist(impl, deep=False).ok
        assert lint_netlist(spec, deep=False).ok
        assert set(impl.outputs) == set(spec.outputs)
        # d must behave identically in both (it is not revised)
        bad = nonequivalent_outputs(impl, spec)
        assert "d" not in bad
        assert bad == ["w_0", "w_1", "w_2"]  # only the word outputs

    def test_example1_shape(self):
        impl, spec = example1_circuits(width=2)
        bad = nonequivalent_outputs(impl, spec)
        assert set(bad) == {"w_0", "w_1"}
