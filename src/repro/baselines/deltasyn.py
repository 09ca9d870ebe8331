"""DeltaSyn-style ECO: signal correspondence + logic difference.

Reimplementation of the approach of Krishnaswamy et al. (ICCAD'09), as
characterized in the paper's prior-work discussion: it 'derives a patch
boundary matching signals of C and C' from both primary inputs and
outputs, thus making the logic implementation of an update readily
available'.

Three phases:

1. **Forward matching.**  Every net of ``C'`` is paired with a
   functionally corresponding net of ``C`` found by multi-round random
   simulation signatures; pairings are confirmed by SAT lazily, only
   when the delta generation actually cuts at them.
2. **Output anchoring.**  Equivalent output pairs are matched outright
   (the 'from outputs' direction).
3. **Delta generation.**  For every failing output, the part of its
   revised cone above the matched boundary is instantiated in ``C`` and
   the port rewired to the clone; deltas of different outputs share
   clones.

The structural consequence the paper exploits is inherent to this
scheme: every net downstream of a functional change is unmatchable, so
the delta spans from the change point all the way to the outputs.  The
rewire-based engine instead repairs *inside* the implementation and
keeps that downstream logic — which is where its patch-size advantage
comes from.
"""

from __future__ import annotations

import random
from repro.runtime.clock import now
from typing import Dict, List, Optional, Set

from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_BITS
from repro.netlist.simulate import random_patterns, simulate_words
from repro.netlist.traverse import topological_order
from repro.cec.equivalence import check_equivalence, nonequivalent_outputs
from repro.errors import EcoError
from repro.eco.patch import Patch, RectificationResult, RewireOp
from repro.sat import Solver, UNSAT
from repro.sat.tseitin import CircuitEncoder


class DeltaSyn:
    """Signal-correspondence ECO engine (DeltaSyn reimplementation).

    Args:
        sim_rounds: random-simulation rounds for candidate matching.
        sat_budget: conflict budget per boundary-match confirmation.
        verify: prove full equivalence of the result (raises on failure).
    """

    def __init__(self, sim_rounds: int = 8,
                 sat_budget: Optional[int] = 20000, verify: bool = True):
        self.sim_rounds = sim_rounds
        self.sat_budget = sat_budget
        self.verify = verify

    # ------------------------------------------------------------------
    def match_signals(self, impl: Circuit, spec: Circuit) -> Dict[str, str]:
        """Candidate correspondence: spec net -> impl net, by signature."""
        rng = random.Random(77)
        impl_sigs: Dict[str, int] = {n: 0 for n in impl.nets()}
        spec_sigs: Dict[str, int] = {n: 0 for n in spec.nets()}
        for _ in range(self.sim_rounds):
            words = random_patterns(impl.inputs, rng)
            iv = simulate_words(impl, words)
            sv = simulate_words(
                spec, {n: words.get(n, 0) for n in spec.inputs})
            for net in impl_sigs:
                impl_sigs[net] = (impl_sigs[net] << WORD_BITS) | iv[net]
            for net in spec_sigs:
                spec_sigs[net] = (spec_sigs[net] << WORD_BITS) | sv[net]

        # earliest impl net per signature (smaller cones preferred)
        by_sig: Dict[int, str] = {}
        for net in list(impl.inputs) + topological_order(impl):
            by_sig.setdefault(impl_sigs[net], net)

        matches: Dict[str, str] = {}
        for net in spec.nets():
            hit = by_sig.get(spec_sigs[net])
            if hit is not None:
                matches[net] = hit
        return matches

    # ------------------------------------------------------------------
    def rectify(self, impl: Circuit, spec: Circuit) -> RectificationResult:
        """Compute and apply the logic difference."""
        started = now()
        work = impl.copy()
        patch = Patch()

        failing = set(nonequivalent_outputs(work, spec))
        if failing:
            matches = self.match_signals(work, spec)
            for port in impl.outputs:  # output anchoring
                if port not in failing:
                    matches.setdefault(spec.outputs[port],
                                       impl.outputs[port])

            # lazy SAT confirmation of boundary matches
            solver = Solver()
            encoder = CircuitEncoder(solver)
            impl_map = encoder.encode(work)
            spec_map = encoder.encode(
                spec, input_vars={n: impl_map[n] for n in work.inputs
                                  if n in spec.inputs})
            confirmed: Dict[str, bool] = {}

            def match_confirmed(snet: str) -> bool:
                hit = confirmed.get(snet)
                if hit is not None:
                    return hit
                inet = matches[snet]
                if snet in spec.inputs and inet == snet:
                    confirmed[snet] = True
                    return True
                neq = encoder._encode_xor2(spec_map[snet], impl_map[inet])
                ok = solver.solve(assumptions=[neq],
                                  conflict_budget=self.sat_budget) == UNSAT
                confirmed[snet] = ok
                return ok

            clone_map: Dict[str, str] = {}
            new_gates: Set[str] = set()
            ops: List[RewireOp] = []

            def resolve(name: str) -> str:
                if name in clone_map:
                    return clone_map[name]
                if name in spec.inputs and name in matches \
                        and matches[name] == name:
                    return name
                if name in matches and match_confirmed(name):
                    clone_map[name] = matches[name]
                    return matches[name]
                if name in spec.inputs:
                    return name
                gate = spec.gates[name]
                fanins = [resolve(f) for f in gate.fanins]
                clone_name = f"delta${name}"
                while work.has_net(clone_name):
                    clone_name += "_"
                work.add_gate(clone_name, gate.gtype, fanins)
                clone_map[name] = clone_name
                new_gates.add(clone_name)
                return clone_name

            for port in sorted(failing):
                target = resolve(spec.outputs[port])
                work.rewire_pin(Pin.output(port), target)
                ops.append(RewireOp(Pin.output(port), spec.outputs[port],
                                    from_spec=True))
            patch.record(ops, clone_map, new_gates)

        per_output = {port: "delta" for port in failing}
        if self.verify:
            verification = check_equivalence(work, spec)
            if verification.equivalent is not True:
                raise EcoError("DeltaSyn result failed verification: "
                               f"{verification.counterexample}")
        return RectificationResult(
            patched=work,
            patch=patch,
            verified_outputs=tuple(sorted(work.outputs)),
            runtime_seconds=now() - started,
            per_output=per_output,
        )
