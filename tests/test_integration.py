"""Cross-module integration and end-to-end property tests."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.cec import check_equivalence, nonequivalent_outputs
from repro.eco import EcoConfig, SysEco, rectify
from repro.baselines import ConeMap, DeltaSyn
from repro.netlist import (
    dumps_blif,
    dumps_verilog,
    loads_blif,
    loads_verilog,
)
from repro.lint.netlist_rules import lint_netlist
from repro.synth import optimize_heavy, optimize_light
from repro.timing import analyze
from repro.workloads.generators import (
    alu_design,
    comparator_design,
    control_design,
    priority_encoder,
)
from repro.workloads.revisions import apply_revision
from tests.conftest import make_random_circuit


def industrial_flow(spec_builder, kind, seed):
    """spec -> heavy C ; spec+edit -> light C' (the paper's setting)."""
    source = spec_builder()
    impl = optimize_heavy(source, seed=seed)
    revised = source.copy()
    apply_revision(revised, kind, seed=seed)
    return impl, optimize_light(revised)


class TestFullPipeline:
    @pytest.mark.parametrize("builder,kind", [
        (lambda: alu_design(width=3), "gate-type"),
        (lambda: comparator_design(width=4), "polarity"),
        (lambda: priority_encoder(width=5), "wrong-input"),
        (lambda: control_design(8, 5, 10, seed=77), "add-condition"),
    ])
    def test_three_engines_agree_on_function(self, builder, kind):
        impl, spec = industrial_flow(builder, kind, seed=17)
        for engine in (SysEco(EcoConfig(num_samples=8)), DeltaSyn(),
                       ConeMap()):
            result = engine.rectify(impl, spec)
            assert lint_netlist(result.patched, deep=False).ok
            assert check_equivalence(result.patched, spec).equivalent, \
                type(engine).__name__

    def test_patched_netlist_round_trips_through_both_formats(self):
        impl, spec = industrial_flow(lambda: alu_design(width=3),
                                     "gate-type", seed=23)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        via_blif = loads_blif(dumps_blif(result.patched))
        via_verilog = loads_verilog(dumps_verilog(result.patched))
        assert check_equivalence(via_blif, spec).equivalent
        assert check_equivalence(via_verilog, spec).equivalent

    def test_second_eco_on_patched_design(self):
        """A patched design can absorb a second revision (ECO chaining)."""
        source = control_design(8, 5, 10, seed=5)
        impl = optimize_heavy(source, seed=9)
        revised1 = source.copy()
        apply_revision(revised1, "gate-type", seed=3)
        spec1 = optimize_light(revised1)
        first = rectify(impl, spec1, EcoConfig(num_samples=8))

        revised2 = revised1.copy()
        apply_revision(revised2, "polarity", seed=11)
        spec2 = optimize_light(revised2)
        second = rectify(first.patched, spec2, EcoConfig(num_samples=8))
        assert check_equivalence(second.patched, spec2).equivalent

    def test_timing_after_patch_is_analyzable(self):
        impl, spec = industrial_flow(lambda: alu_design(width=4),
                                     "polarity", seed=31)
        result = rectify(impl, spec, EcoConfig(level_aware=True))
        report = analyze(result.patched, period=analyze(impl).period,
                         eco_gates=result.patch.cloned_gates,
                         eco_penalty_ps=10.0)
        assert report.period > 0
        assert set(report.output_slack) == set(impl.outputs)

    def test_engine_patch_never_larger_than_cone_map(self):
        for seed in (1, 2, 3):
            impl, spec = industrial_flow(
                lambda: control_design(8, 6, 12, seed=seed * 7),
                "gate-type", seed=seed)
            syseco = rectify(impl, spec, EcoConfig(num_samples=8))
            cone = ConeMap().rectify(impl, spec)
            assert syseco.stats().gates <= cone.stats().gates


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["gate-type", "polarity", "wrong-input"]))
def test_rectification_always_verifies(seed, kind):
    """Property: for any generated spec and revision, syseco produces a
    provably equivalent patched implementation."""
    source = make_random_circuit(seed % 40, n_inputs=5, n_gates=18,
                                 n_outputs=3)
    impl = optimize_heavy(source, seed=seed)
    revised = source.copy()
    try:
        apply_revision(revised, kind, seed=seed)
    except Exception:
        return  # degenerate circuit for this revision kind
    spec = optimize_light(revised)
    if not nonequivalent_outputs(impl, spec):
        return  # revision was masked; nothing to rectify
    result = rectify(impl, spec, EcoConfig(num_samples=8))
    assert check_equivalence(result.patched, spec).equivalent is True
