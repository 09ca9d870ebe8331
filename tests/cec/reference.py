"""Reference equivalence queries without SAT sweeping (test oracle).

The monolithic miter -- one 'any difference' query over every compared
output pair -- and the plain per-port SAT loop, exactly as the checker
answered before it learned to sweep.  The differential tests pin the
swept :func:`repro.cec.equivalence.check_equivalence` and
:func:`~repro.cec.equivalence.nonequivalent_outputs` to them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cec.equivalence import (
    EquivalenceResult,
    PairwiseChecker,
    compared_ports,
)
from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.sat import UNKNOWN, UNSAT


def reference_check_equivalence(left: Circuit, right: Circuit,
                                outputs: Optional[Sequence[str]] = None,
                                conflict_budget: Optional[int] = None
                                ) -> EquivalenceResult:
    """One OR-of-XORs miter query over all compared ports."""
    outputs = compared_ports(left, right, outputs)
    if not outputs:
        raise NetlistError("no shared outputs to compare")
    checker = PairwiseChecker(left, right)
    diff_lits = [checker.diff_literal(p) for p in outputs]
    any_var = checker.solver.new_var()
    checker.solver.add_clause([-any_var] + diff_lits)
    for lit in diff_lits:
        checker.solver.add_clause([any_var, -lit])
    status = checker.solver.solve(assumptions=[any_var],
                                  conflict_budget=conflict_budget)
    if status == UNSAT:
        return EquivalenceResult(True)
    if status == UNKNOWN:
        return EquivalenceResult(None)
    model = checker.solver.model()
    failing = tuple(
        p for p, lit in zip(outputs, diff_lits) if model.get(lit, False)
    )
    return EquivalenceResult(False,
                             counterexample=checker._extract_inputs(),
                             failing_outputs=failing)


def reference_nonequivalent_outputs(left: Circuit, right: Circuit,
                                    outputs: Optional[Sequence[str]] = None
                                    ) -> List[str]:
    """One unbudgeted output-pair SAT query per port, no pre-pass."""
    checker = PairwiseChecker(left, right)
    return [p for p in compared_ports(left, right, outputs)
            if checker.check_pair(p).equivalent is False]
