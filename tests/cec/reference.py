"""Reference equivalence queries without SAT sweeping (test oracle).

The monolithic miter -- one 'any difference' query over every compared
output pair -- and the plain per-port SAT loop, exactly as the checker
answered before it learned to sweep.  Both encode the two circuits
into a fresh solver with the plain Tseitin encoder, so they share
neither the checker's structural hashing nor its sweep.  The
differential tests pin the swept
:func:`repro.cec.equivalence.check_equivalence` and
:func:`~repro.cec.equivalence.nonequivalent_outputs` to them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cec.equivalence import EquivalenceResult, compared_ports
from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.sat import Solver, UNKNOWN, UNSAT
from repro.sat.tseitin import CircuitEncoder


def _plain_miter(left: Circuit, right: Circuit, ports: Sequence[str]
                 ) -> Tuple[Solver, Dict[str, int], List[int]]:
    """A fresh solver holding both circuits over shared inputs; returns
    it, the input variables and one 'port differs' literal per port."""
    solver = Solver()
    encoder = CircuitEncoder(solver)
    inputs = {n: solver.new_var()
              for n in sorted(set(left.inputs) | set(right.inputs))}
    lmap = encoder.encode(left, input_vars=inputs)
    rmap = encoder.encode(right, input_vars=inputs)
    diffs = [encoder._encode_xor2(lmap[left.outputs[p]],
                                  rmap[right.outputs[p]]) for p in ports]
    return solver, inputs, diffs


def _inputs_of_model(solver: Solver,
                     inputs: Dict[str, int]) -> Dict[str, bool]:
    model = solver.model()
    return {n: model.get(v, False) for n, v in inputs.items()}


def reference_check_equivalence(left: Circuit, right: Circuit,
                                outputs: Optional[Sequence[str]] = None,
                                conflict_budget: Optional[int] = None
                                ) -> EquivalenceResult:
    """One OR-of-XORs miter query over all compared ports."""
    outputs = compared_ports(left, right, outputs)
    if not outputs:
        raise NetlistError("no shared outputs to compare")
    solver, inputs, diff_lits = _plain_miter(left, right, outputs)
    any_var = solver.new_var()
    solver.add_clause([-any_var] + diff_lits)
    for lit in diff_lits:
        solver.add_clause([any_var, -lit])
    status = solver.solve(assumptions=[any_var],
                          conflict_budget=conflict_budget)
    if status == UNSAT:
        return EquivalenceResult(True)
    if status == UNKNOWN:
        return EquivalenceResult(None)
    model = solver.model()
    failing = tuple(
        p for p, lit in zip(outputs, diff_lits) if model.get(lit, False)
    )
    return EquivalenceResult(False,
                             counterexample=_inputs_of_model(solver, inputs),
                             failing_outputs=failing)


def reference_nonequivalent_outputs(left: Circuit, right: Circuit,
                                    outputs: Optional[Sequence[str]] = None
                                    ) -> List[str]:
    """One unbudgeted output-pair SAT query per port, no pre-pass."""
    ports = compared_ports(left, right, outputs)
    solver, _, diff_lits = _plain_miter(left, right, ports)
    return [p for p, lit in zip(ports, diff_lits)
            if solver.solve(assumptions=[lit]) != UNSAT]
