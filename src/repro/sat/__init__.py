"""SAT solving substrate.

A from-scratch CDCL solver in the MiniSAT lineage (the paper's engine
embeds MiniSAT v1.13): two-watched-literal propagation, VSIDS branching
with phase saving, first-UIP conflict analysis with clause minimization,
geometric restarts and learned-clause reduction.  On top sits the
Tseitin transformation from netlists to CNF, with which the equivalence
checkers and the ECO validation step encode their miters.

Budgets: :meth:`Solver.solve` accepts a conflict budget and returns
``UNKNOWN`` when exhausted — the 'resource-constrained SAT solver' used
to validate sampled rewire candidates (Section 5.1).
"""

from repro.sat.solver import Solver, SAT, UNSAT, UNKNOWN
from repro.sat.tseitin import CircuitEncoder, encode_circuit

__all__ = [
    "Solver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "CircuitEncoder",
    "encode_circuit",
]
