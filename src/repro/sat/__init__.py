"""SAT solving substrate.

A from-scratch CDCL solver in the MiniSAT lineage (the paper's engine
embeds MiniSAT v1.13): two-watched-literal propagation, VSIDS branching
with phase saving, first-UIP conflict analysis with clause minimization,
geometric restarts and learned-clause reduction.  On top sit a CNF
container with DIMACS I/O and the Tseitin transformation from netlists
to CNF used by miters and by the ECO validation step.

Budgets: :meth:`Solver.solve` accepts a conflict budget and returns
``UNKNOWN`` when exhausted — the 'resource-constrained SAT solver' used
to validate sampled rewire candidates (Section 5.1).
"""

from repro.sat.solver import Solver, SAT, UNSAT, UNKNOWN
from repro.sat.cnf import Cnf, parse_dimacs, to_dimacs
from repro.sat.tseitin import CircuitEncoder, encode_circuit

__all__ = [
    "Solver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Cnf",
    "parse_dimacs",
    "to_dimacs",
    "CircuitEncoder",
    "encode_circuit",
]
