"""Combinational equivalence checking (CEC).

Provides output-pair equivalence queries with counterexamples, on
miters encoded incrementally in one solver, and SAT sweeping
(simulation-guided equivalent-net merging).  The ECO engine uses CEC to
find the non-equivalent output pairs that drive rectification, to
harvest error-domain samples, and to validate candidate rewire
operations on the full input domain.
"""

from repro.cec.equivalence import (
    EquivalenceResult,
    check_equivalence,
    nonequivalent_outputs,
)
from repro.cec.sweep import sweep_equivalent_nets, equivalence_classes

__all__ = [
    "EquivalenceResult",
    "check_equivalence",
    "nonequivalent_outputs",
    "sweep_equivalent_nets",
    "equivalence_classes",
]
