"""Rectification logic resynthesis (the paper's future-work direction).

Section 7 names 'rectification logic synthesis' as the next improvement
to the flow.  This module implements it as *patch resubstitution*:
after the rewires are committed and the sweep has reused exact
duplicates, each remaining cloned net is re-expressed — when possible —
as a single gate over nets that already exist in the implementation:

* ``c == ~s``            -> one inverter;
* ``c == g(s1, s2)``     -> one 2-input gate, ``g`` drawn from the
  AND/OR/XOR families with optional input inversions (the NPN-ish
  variants that one physical cell could realize).

Candidates are screened with multi-round simulation signatures and
confirmed by SAT before any edit, so the pass is strictly
function-preserving.  Every successful resubstitution removes at least
one cloned gate (deep clones collapse transitively).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType, WORD_MASK
from repro.netlist.simulate import random_patterns, simulate_words
from repro.netlist.traverse import (
    support_masks,
    topological_order,
    transitive_fanout,
)
from repro.cec.sweep import prune_dangling
from repro.sat import Solver, UNSAT
from repro.sat.tseitin import CircuitEncoder

# (gate type, invert first operand, invert second operand); the
# double-inversion variants are redundant (AND(~a,~b) == NOR(a,b)), so
# every listed form adds at most one inverter.
_TWO_INPUT_FORMS: Tuple[Tuple[GateType, bool, bool], ...] = (
    (GateType.AND, False, False), (GateType.AND, True, False),
    (GateType.AND, False, True),
    (GateType.OR, False, False), (GateType.OR, True, False),
    (GateType.OR, False, True),
    (GateType.XOR, False, False), (GateType.XNOR, False, False),
    (GateType.NAND, False, False), (GateType.NOR, False, False),
)


def _word_signatures(circuit: Circuit, rounds: int,
                     seed: int) -> Dict[str, List[int]]:
    """Per-net list of simulation words (one per round)."""
    import random
    rng = random.Random(seed)
    sigs: Dict[str, List[int]] = {n: [] for n in circuit.nets()}
    for _ in range(rounds):
        words = random_patterns(circuit.inputs, rng)
        values = simulate_words(circuit, words)
        for net in sigs:
            sigs[net].append(values[net])
    return sigs


def _form_words(form: Tuple[GateType, bool, bool],
                a: Sequence[int], b: Sequence[int]) -> List[int]:
    gtype, inv_a, inv_b = form
    out = []
    for wa, wb in zip(a, b):
        if inv_a:
            wa = ~wa & WORD_MASK
        if inv_b:
            wb = ~wb & WORD_MASK
        if gtype is GateType.AND:
            w = wa & wb
        elif gtype is GateType.OR:
            w = wa | wb
        elif gtype is GateType.XOR:
            w = wa ^ wb
        elif gtype is GateType.XNOR:
            w = ~(wa ^ wb) & WORD_MASK
        elif gtype is GateType.NAND:
            w = ~(wa & wb) & WORD_MASK
        else:  # NOR
            w = ~(wa | wb) & WORD_MASK
        out.append(w)
    return out


class _Prover:
    """Lazy SAT instance proving net-vs-expression equalities."""

    def __init__(self, circuit: Circuit, budget: Optional[int]):
        self.solver = Solver()
        self.encoder = CircuitEncoder(self.solver)
        self.varmap = self.encoder.encode(circuit)
        self.budget = budget

    def equal_direct(self, target: str, source: str) -> bool:
        eq = self.encoder.equality(self.varmap[target],
                                   self.varmap[source])
        return self.solver.solve(assumptions=[-eq],
                                 conflict_budget=self.budget) == UNSAT

    def equal_to_inverter(self, target: str, source: str) -> bool:
        eq = self.encoder.equality(self.varmap[target],
                                   -self.varmap[source])
        return self.solver.solve(assumptions=[-eq],
                                 conflict_budget=self.budget) == UNSAT

    def equal_to_form(self, target: str,
                      form: Tuple[GateType, bool, bool],
                      a: str, b: str) -> bool:
        gtype, inv_a, inv_b = form
        va = self.varmap[a] * (-1 if inv_a else 1)
        vb = self.varmap[b] * (-1 if inv_b else 1)
        out = self.encoder.encode_gate(gtype, [va, vb])
        eq = self.encoder.equality(self.varmap[target], out)
        return self.solver.solve(assumptions=[-eq],
                                 conflict_budget=self.budget) == UNSAT


def resubstitute_patch(patched: Circuit, cloned_gates: Set[str],
                       rounds: int = 4, seed: int = 131,
                       max_pool: int = 20,
                       conflict_budget: Optional[int] = 20000
                       ) -> Tuple[int, Set[str]]:
    """Re-express cloned patch logic over existing nets, in place.

    Args:
        patched: the rectified implementation (edited in place).
        cloned_gates: gate names the patch instantiated.
        rounds: signature rounds for candidate screening.
        seed: signature seed.
        max_pool: cap on existing nets paired per target.
        conflict_budget: SAT budget per equality proof.

    Returns:
        ``(resubstitutions, patch_gates)`` — the second element is the
        up-to-date set of patch-owned gates: surviving clones plus the
        single gates this pass materialized.
    """
    alive = {g for g in cloned_gates if g in patched.gates}
    if not alive:
        return 0, set()

    sigs = _word_signatures(patched, rounds, seed)
    supports = support_masks(patched)
    prover = _Prover(patched, conflict_budget)
    resubs = 0
    added: Set[str] = set()

    def freed_estimate(target: str) -> int:
        """Patch gates that die if ``target``'s sinks move elsewhere:
        the target plus its single-sink chains of upstream clones."""
        total = 1
        for f in patched.gates[target].fanins:
            if f in alive and f in patched.gates and \
                    patched.sinks(f) == [p for p in patched.sinks(f)
                                         if p.kind == "gate"
                                         and p.owner == target]:
                total += freed_estimate(f)
        return total

    # deepest clones first: replacing a deep clone frees its whole cone
    order = [g for g in topological_order(patched) if g in alive]
    for target in reversed(order):
        if target not in patched.gates or not patched.sinks(target):
            continue
        gate = patched.gates[target]
        if gate.gtype.is_constant:
            continue
        budget_gates = freed_estimate(target)
        target_sig = sigs[target]
        target_support = supports[target]
        forbidden = transitive_fanout(patched, [target])

        # candidate pool: existing (non-clone) nets inside the target's
        # support whose own support is contained in it, shallow first
        pool: List[str] = []
        for net in patched.nets():
            if net in alive or net in forbidden:
                continue
            if supports[net] & ~target_support:
                continue
            pool.append(net)
            if len(pool) >= max_pool * 3:
                break
        pool = pool[: max_pool * 3]

        gates_before = set(patched.gates)
        replacement = _find_replacement(
            patched, prover, sigs, target, target_sig, pool, max_pool,
            budget_gates)
        if replacement is None:
            continue
        new_gates = set(patched.gates) - gates_before
        added |= new_gates
        patched.replace_net(target, replacement)
        resubs += 1
        # the new gates participate in later searches
        for name in sorted(new_gates,
                           key=lambda n: len(patched.gates[n].fanins)):
            gate_new = patched.gates[name]
            operands = [sigs[f] for f in gate_new.fanins]
            sigs[name] = _eval_sig(gate_new.gtype, operands)
            supports[name] = 0
            for f in gate_new.fanins:
                supports[name] |= supports[f]

    if resubs:
        prune_dangling(patched)
    patch_gates = {g for g in (alive | added) if g in patched.gates}
    return resubs, patch_gates


def _eval_sig(gtype: GateType, operands: Sequence[Sequence[int]]
              ) -> List[int]:
    from repro.netlist.gate import eval_gate
    rounds = len(operands[0])
    return [eval_gate(gtype, [op[r] for op in operands])
            for r in range(rounds)]


def _find_replacement(patched: Circuit, prover: _Prover,
                      sigs: Dict[str, List[int]], target: str,
                      target_sig: List[int], pool: Sequence[str],
                      max_pool: int, budget_gates: int) -> Optional[str]:
    """One confirmed replacement net for ``target``, or None.

    ``budget_gates`` is the estimated number of patch gates that die
    when the target's sinks move; a replacement is only built when it
    costs strictly fewer gates than it frees (direct reuse is free).
    The returned net may be a freshly added single gate; gates are only
    added once SAT has confirmed the equality.
    """
    # direct reuse of an existing net: always a win
    for net in pool:
        if sigs[net] == target_sig and prover.equal_direct(target, net):
            return net

    inv_sig = [~w & WORD_MASK for w in target_sig]
    # single inverter: costs 1 gate, pays off when it frees more than
    # one gate or demotes a multi-input clone to an inverter
    if budget_gates > 1 or len(patched.gates[target].fanins) >= 2:
        for net in pool:
            if sigs[net] == inv_sig and \
                    prover.equal_to_inverter(target, net):
                return patched.not_(net, name=_fresh(patched,
                                                     f"rs${target}"))

    # one 2-input gate over a pool pair (costs 1 gate + the inverter)
    ranked = sorted(
        pool,
        key=lambda n: -_agreement(sigs[n], target_sig))[:max_pool]
    for i, a in enumerate(ranked):
        for b in ranked[i + 1:]:
            for form in _TWO_INPUT_FORMS:
                cost = 1 + int(form[1]) + int(form[2])
                if cost >= budget_gates:
                    continue
                if _form_words(form, sigs[a], sigs[b]) != target_sig:
                    continue
                if prover.equal_to_form(target, form, a, b):
                    return _materialize(patched, form, a, b, target)
    return None


def _agreement(sig: Sequence[int], target: Sequence[int]) -> int:
    same = 0
    for wa, wb in zip(sig, target):
        same += bin(~(wa ^ wb) & WORD_MASK).count("1")
    return same


def _materialize(patched: Circuit, form: Tuple[GateType, bool, bool],
                 a: str, b: str, target: str) -> str:
    gtype, inv_a, inv_b = form
    if inv_a:
        a = patched.not_(a, name=_fresh(patched, f"rs${target}$na"))
    if inv_b:
        b = patched.not_(b, name=_fresh(patched, f"rs${target}$nb"))
    return patched.add(gtype, [a, b],
                       name=_fresh(patched, f"rs${target}"))


def _fresh(circuit: Circuit, base: str) -> str:
    name = base
    while circuit.has_net(name):
        name += "_"
    return name
