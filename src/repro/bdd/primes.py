"""Prime-cube enumeration on BDDs.

Section 4.2 of the paper enumerates *prime cubes* of the characteristic
function ``H(t)`` and uses them as seeds for candidate rectification
point-sets.  A cube contained in ``f`` is prime when dropping any of its
literals voids the containment.

``expand_to_prime`` turns any implicant into a prime by greedy literal
dropping; ``enumerate_primes`` produces a stream of distinct primes by
repeatedly picking a satisfying cube of the not-yet-covered remainder
and expanding it — an irredundant prime cover generator.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.bdd.cube import Cube
from repro.bdd.manager import BddManager, FALSE


def expand_to_prime(manager: BddManager, cube: Cube, f: int,
                    drop_order: Optional[Sequence[int]] = None) -> Cube:
    """Expand an implicant of ``f`` into a prime implicant.

    Args:
        manager: the BDD manager owning ``f``.
        cube: an implicant (``cube => f`` must hold).
        f: the target function.
        drop_order: preferred order in which to try dropping variables;
            defaults to descending variable index (drops the cheapest,
            bottom-most decisions first).

    Returns:
        A prime cube containing ``cube`` and contained in ``f``.
    """
    if not manager.implies_check(cube.to_bdd(manager), f):
        raise ValueError("cube is not an implicant of f")
    current = cube
    variables = list(drop_order) if drop_order is not None else sorted(
        (v for v, _ in cube), reverse=True)
    for v in variables:
        if v not in current:
            continue
        candidate = current.without(v)
        if manager.implies_check(candidate.to_bdd(manager), f):
            current = candidate
    return current


def enumerate_primes(manager: BddManager, f: int,
                     limit: Optional[int] = None) -> Iterator[Cube]:
    """Stream distinct prime implicants covering ``f``.

    Repeatedly takes a satisfying cube of the uncovered remainder,
    expands it to a prime of the *original* function, yields it and
    removes it from the remainder.  Terminates when the remainder is
    FALSE (the yielded primes form a cover of ``f``) or after ``limit``
    primes.
    """
    remainder = f
    produced = 0
    while remainder != FALSE:
        if limit is not None and produced >= limit:
            return
        seed = next(manager.sat_cubes(remainder), None)
        if seed is None:  # pragma: no cover - remainder != FALSE guards this
            return
        prime = expand_to_prime(manager, Cube(seed), f)
        yield prime
        produced += 1
        remainder = manager.and_(remainder,
                                 manager.not_(prime.to_bdd(manager)))
