"""Rewiring-choice selection: the ``Xi(c)`` check (Section 4.4).

Given a rectification point-set ``(p_1 ... p_m)`` with ordered candidate
rewiring nets ``S_i`` per point, a choice ``c`` picks one candidate
``r_{i,c_i}`` per point.  The consistency relation ``R`` pins
``y_i = r_{i,c_i}(z)``, so Theorem 1 at one choice reads::

    Xi(c)  <=>  h(s, r_c(s)) == f'(s)  on every sample s

where ``h(x, y)`` is the output with pin ``p_i`` hard-driven by
``y_i``.  It is checked on the output search's sample words
(:class:`~repro.eco.validate.SimulationFilter`): one cone simulation per
assignment ``a`` of the pins gives the samples ``miss_a`` it gets wrong,
and a choice is valid when no sample on which its candidates' words
spell ``a`` lies in ``miss_a``.  Combinations are walked in increasing
patch-cost order, so the cost order is exact; SAT later proves each
winner on the full domain.  The symbolic form of ``Xi`` over BDDs is
kept in ``tests/eco/reference.py`` as the oracle.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netlist.circuit import Circuit, Pin
from repro.eco.rewiring import RewireCandidate
from repro.eco.validate import SimulationFilter, spec_cone_clones
from repro.obs.trace import ensure_trace

#: a choice assigns one candidate to every point of the set
Choice = Tuple[RewireCandidate, ...]

CostFn = Callable[[Pin, RewireCandidate], float]


def default_cost(pin: Pin, candidate: RewireCandidate) -> float:
    """Patch-size flavored cost: trivial < existing net < cloned logic."""
    if candidate.trivial:
        return 0.0
    if not candidate.from_spec:
        return 1.0
    return 2.0 + 0.05 * candidate.level


def make_clone_aware_cost(spec: Circuit, clone_map: Dict[str, str],
                          level_term: Optional[Callable[
                              [Pin, RewireCandidate], float]] = None
                          ) -> CostFn:
    """Cost that charges specification candidates by clone size.

    A candidate from ``C'`` costs one unit per gate that would actually
    be instantiated — gates already cloned by earlier rewires (present
    in ``clone_map``) are free, which makes the engine converge on
    shared patch logic across outputs.
    """
    cache: Dict[str, int] = {}

    def clone_gates(net: str) -> int:
        hit = cache.get(net)
        if hit is None:
            hit = cache[net] = len(spec_cone_clones(spec, net, clone_map))
        return hit

    def cost(pin: Pin, candidate: RewireCandidate) -> float:
        if candidate.trivial:
            base = 0.0
        elif not candidate.from_spec:
            base = 1.0
        else:
            base = 1.2 + 0.6 * clone_gates(candidate.net)
        if level_term is not None:
            base += level_term(pin, candidate)
        return base

    return cost


def enumerate_rewiring_choices(
        sim: SimulationFilter, port: str,
        pins: Sequence[Pin],
        candidates: Sequence[Sequence[RewireCandidate]],
        limit: int = 16,
        cost_fn: Optional[CostFn] = None,
        trace=None) -> List[Choice]:
    """Valid rewiring choices for one point-set, cheapest first.

    Args:
        sim: the output search's simulation of its samples.
        port: the failing output being rectified.
        pins: the rectification point-set.
        candidates: ordered candidate list per pin (index 0 should be
            the trivial candidate), each carrying its word in ``sim``.
        limit: maximum number of choices returned.
        cost_fn: choice ordering; defaults to :func:`default_cost`.

    Returns:
        Up to ``limit`` choices that satisfy ``Xi(c)`` on the samples,
        ordered by total cost.  The all-trivial choice is excluded (it
        denotes 'change nothing' and cannot rectify a failing output).
    """
    with ensure_trace(trace).span(
            "choices.enumerate", output=port, pins=len(pins)) as _span:
        result = _enumerate_choices(sim, port, pins, candidates, limit,
                                    cost_fn)
        _span.tag(choices=len(result))
        return result


def _enumerate_choices(
        sim: SimulationFilter, port: str,
        pins: Sequence[Pin],
        candidates: Sequence[Sequence[RewireCandidate]],
        limit: int,
        cost_fn: Optional[CostFn]) -> List[Choice]:
    cost_fn = cost_fn or default_cost
    misses = sim.assignment_misses(port, pins)
    # a sample that no assignment of the pins corrects: Xi is empty
    stuck = sim.sample_mask
    for miss in misses:
        stuck &= miss
    if stuck:
        return []

    # walk candidate combinations cheapest-total-cost first
    indexed: List[List[Tuple[float, int]]] = []
    for i, cand_list in enumerate(candidates):
        pairs = [(cost_fn(pins[i], cand), k)
                 for k, cand in enumerate(cand_list)]
        pairs.sort()
        indexed.append(pairs)

    combos = []
    for combo in itertools.product(*indexed):
        total = sum(c for c, _ in combo)
        combos.append((total, tuple(k for _, k in combo)))
    combos.sort()

    choices: List[Choice] = []
    for _, ks in combos:
        choice = tuple(candidates[i][k] for i, k in enumerate(ks))
        if all(cand.trivial for cand in choice):
            continue
        if _satisfies_xi(misses, [cand.word for cand in choice]):
            choices.append(choice)
            if len(choices) >= limit:
                break
    return choices


def _satisfies_xi(misses: Sequence[int], words: Sequence[int]) -> bool:
    """Whether no sample on which ``words`` spell assignment ``a`` (bit
    ``i`` of ``a`` is word ``i``'s bit) lies in ``misses[a]``."""
    for a, miss in enumerate(misses):
        for i, word in enumerate(words):
            if not miss:
                break
            miss &= word if a >> i & 1 else ~word
        if miss:
            return False
    return True
