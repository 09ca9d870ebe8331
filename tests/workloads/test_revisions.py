"""Tests for ground-truth specification revisions."""


import pytest

from repro.cec.equivalence import check_equivalence, nonequivalent_outputs
from repro.errors import ReproError
from repro.lint.netlist_rules import lint_netlist
from repro.workloads.generators import alu_design, control_design
from repro.workloads.revisions import (
    apply_revision,
    compose_revisions,
)

KINDS = ["gate-type", "wrong-input", "add-condition", "polarity",
         "word-redefine"]


@pytest.mark.parametrize("kind", KINDS)
def test_revision_changes_function(kind):
    spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=4)
    revised = spec.copy()
    rev = apply_revision(revised, kind, seed=2)
    assert lint_netlist(revised, deep=False).ok
    assert rev.estimate_gates >= 1
    result = check_equivalence(spec, revised)
    assert result.equivalent is False


@pytest.mark.parametrize("kind", KINDS)
def test_affected_outputs_cover_failures(kind):
    spec = alu_design(width=3)
    revised = spec.copy()
    rev = apply_revision(revised, kind, seed=6)
    failing = nonequivalent_outputs(spec, revised)
    assert set(failing) <= set(rev.affected_outputs)


def test_unknown_kind_rejected():
    spec = alu_design(width=2)
    with pytest.raises(ReproError):
        apply_revision(spec, "no-such-kind")


def test_revision_is_deterministic():
    spec1 = control_design(n_inputs=8, n_outputs=4, n_terms=8, seed=9)
    spec2 = spec1.copy()
    r1 = apply_revision(spec1, "gate-type", seed=13)
    r2 = apply_revision(spec2, "gate-type", seed=13)
    assert r1.description == r2.description


def test_bias_deep_touches_more_outputs_on_average():
    touched = {"deep": 0, "shallow": 0}
    for seed in range(6):
        for bias in ("deep", "shallow"):
            spec = control_design(n_inputs=10, n_outputs=8, n_terms=14,
                                  seed=seed)
            rev = apply_revision(spec, "polarity", seed=seed, bias=bias)
            touched[bias] += len(rev.affected_outputs)
    assert touched["deep"] >= touched["shallow"]


def test_word_redefine_touches_requested_bits():
    spec = alu_design(width=4)
    rev = apply_revision(spec, "word-redefine", seed=3,
                         out_prefix="r", max_bits=2)
    assert len(rev.affected_outputs) == 2
    assert all(p.startswith("r") for p in rev.affected_outputs)


def test_compose_revisions_merges_records():
    spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=5)
    reference = spec.copy()
    rev = compose_revisions(spec, ["gate-type",
                                   ("polarity", {"bias": "deep"})], seed=8)
    assert "+" in rev.kind
    assert rev.estimate_gates >= 2
    assert lint_netlist(spec, deep=False).ok
    assert check_equivalence(reference, spec).equivalent is False


def test_add_condition_description_names_target():
    spec = control_design(n_inputs=6, n_outputs=4, n_terms=8, seed=2)
    rev = apply_revision(spec, "add-condition", seed=4)
    assert ":=" in rev.description


@pytest.mark.parametrize("kind", ["drop-term", "extra-term"])
def test_term_revisions_change_function(kind):
    spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=6)
    revised = spec.copy()
    rev = apply_revision(revised, kind, seed=3)
    assert lint_netlist(revised, deep=False).ok
    assert check_equivalence(spec, revised).equivalent is False
    assert rev.estimate_gates >= 1


def test_drop_term_shrinks_gate():
    spec = control_design(n_inputs=8, n_outputs=4, n_terms=10, seed=8)
    widths_before = {g: len(spec.gates[g].fanins) for g in spec.gates}
    rev = apply_revision(spec, "drop-term", seed=2)
    target = rev.description.split(":")[0]
    assert len(spec.gates[target].fanins) == widths_before[target] - 1


def test_extra_term_widens_gate():
    spec = control_design(n_inputs=8, n_outputs=4, n_terms=10, seed=8)
    widths_before = {g: len(spec.gates[g].fanins) for g in spec.gates}
    rev = apply_revision(spec, "extra-term", seed=2)
    target = rev.description.split(":")[0]
    assert len(spec.gates[target].fanins) == widths_before[target] + 1


def test_term_revisions_rectifiable():
    from repro.eco.config import EcoConfig
    from repro.eco.engine import rectify
    from repro.synth import optimize_heavy, optimize_light
    spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=12)
    impl = optimize_heavy(spec, seed=44)
    revised = spec.copy()
    apply_revision(revised, "drop-term", seed=1)
    revised = optimize_light(revised)
    result = rectify(impl, revised, EcoConfig(num_samples=8))
    assert check_equivalence(result.patched, revised).equivalent is True
