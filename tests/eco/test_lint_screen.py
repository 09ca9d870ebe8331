"""Adversarial tests of the pre-SAT lint screen.

The candidate filter in :class:`RewiringContext` normally removes nets
from the rectification point's fanout cone, so cycle-forming candidates
never reach the engine.  Here we sabotage that filter: every legitimate
candidate is shadowed by an *imposter* drawn from the fanout cone that
carries an identical sample word.  Xi(c) cannot tell the
two apart, the imposter ranks first, and only the static lint screen
stands between it and a wasted SAT call.
"""

import pytest

from repro.cec.equivalence import check_equivalence
from repro.errors import EcoError, PatchStructureError
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.eco.rewiring import RewireCandidate, RewiringContext
from repro.eco.validate import assert_patch_structure
from repro.netlist.circuit import Circuit


def buggy_pair():
    """OR where the spec wants AND — the classic one-gate bug."""
    spec = Circuit("spec")
    spec.add_inputs(["a", "b", "c"])
    g1 = spec.and_("a", "b", name="g1")
    spec.set_output("o", spec.xor(g1, "c"))
    impl = Circuit("impl")
    impl.add_inputs(["a", "b", "c"])
    h1 = impl.or_("a", "b", name="h1")
    impl.set_output("o", impl.xor(h1, "c"))
    return impl, spec


@pytest.fixture
def sabotaged_candidates(monkeypatch):
    """Disable the fanout-cone candidate filter, adversarially.

    Each non-trivial candidate is preceded by a cycle-forming imposter
    with the same sample word, utility, and level, so every ordering the
    engine applies (cost, utility, Xi membership) tries the imposter
    first.
    """
    orig = RewiringContext._candidates_for_pin

    def adversarial(self, pin):
        out = orig(self, pin)
        if pin.is_output_port or len(out) < 2:
            return out
        cone = sorted(self.screen.fanout_cone(pin.owner))
        shadowed = [out[0]]  # keep the trivial candidate at index 0
        for cand in out[1:]:
            shadowed.append(RewireCandidate(
                net=cone[0], from_spec=False, utility=cand.utility,
                word=cand.word, level=cand.level))
            shadowed.append(cand)
        return shadowed

    monkeypatch.setattr(RewiringContext, "_candidates_for_pin",
                        adversarial)


class TestLintScreenBlocksCycles:
    def test_imposters_rejected_before_sat(self, sabotaged_candidates):
        impl, spec = buggy_pair()
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        counters = result.counters

        # the imposters were selected and statically rejected ...
        assert counters.lint_rejects >= 1
        # ... at zero solver cost: every screened candidate is accounted
        # for as lint-rejected, sim-rejected, or SAT-validated, so a
        # lint rejection can never coincide with a SAT call
        assert counters.lint_screens == (counters.lint_rejects
                                         + counters.sim_rejects
                                         + counters.sat_validations)
        # the run still converges on a correct patch
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_clean_run_screens_without_rejecting(self):
        impl, spec = buggy_pair()
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert result.counters.lint_screens >= 1
        assert result.counters.lint_rejects == 0


class TestPatchStructureError:
    def cyclic(self) -> Circuit:
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g")
        c.or_("g", "a", name="h")
        c.set_output("o", "h")
        c.gates["g"].fanins[0] = "h"   # g <-> h cycle
        return c

    def test_raises_with_diagnostics(self):
        with pytest.raises(PatchStructureError) as exc:
            assert_patch_structure(self.cyclic(), ops=[])
        err = exc.value
        assert err.diagnostics
        assert any("NL010" in str(d) for d in err.diagnostics)

    def test_is_an_eco_error(self):
        assert issubclass(PatchStructureError, EcoError)

    def test_well_formed_patch_passes(self):
        impl, _ = buggy_pair()
        assert assert_patch_structure(impl, ops=[]) is None
