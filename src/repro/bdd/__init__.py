"""Reduced Ordered Binary Decision Diagram (ROBDD) package.

This is the reproduction of the paper's "in-house BDD package": the
symbolic engine in which the sampling-domain computations of Sections
4-5 run — ``H(t)`` over the gates its ``y`` and ``t`` variables reach,
its quantification, and prime-cube enumeration for candidate
rectification point-sets.  Every other sampling-domain function is read
off a net's simulation word over the samples, and the utility heuristic
and ``Xi(c)`` are evaluated on those words directly.

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

__all__ = [
    "BddManager",
    "FALSE",
    "TRUE",
    "Bdd",
    "Cube",
    "enumerate_primes",
    "expand_to_prime",
]
