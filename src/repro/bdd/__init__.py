"""Reduced Ordered Binary Decision Diagram (ROBDD) package.

This is the reproduction of the paper's "in-house BDD package": the
symbolic engine in which the sampling-domain computations of Sections
4-5 run — quantification for ``H(t)`` and ``Xi(c)``, assignment counting
for the rectification-utility heuristic, and prime-cube enumeration for
candidate rectification point-sets.

Two API levels are exposed:

* :class:`~repro.bdd.manager.BddManager` — integer node handles,
  explicit method calls; the fast path used by the ECO engine.
* :class:`~repro.bdd.expr.Bdd` — a thin operator-overloading wrapper
  (``&``, ``|``, ``^``, ``~``) for examples and tests.
"""

from repro.bdd.manager import BddManager, FALSE, TRUE
from repro.bdd.expr import Bdd
from repro.bdd.cube import Cube
from repro.bdd.primes import enumerate_primes, expand_to_prime
from repro.bdd.netbridge import net_functions

__all__ = [
    "BddManager",
    "FALSE",
    "TRUE",
    "Bdd",
    "Cube",
    "enumerate_primes",
    "expand_to_prime",
    "net_functions",
]
