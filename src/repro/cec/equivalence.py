"""SAT-based equivalence queries over output pairs.

Output-level queries run after a SAT sweep of the compared cones
(fraiging; Kuehlmann et al., TCAD 2002; Mishchenko et al., ICCAD 2006):
see :meth:`PairwiseChecker.sweep`.  The clauses a sweep adds are
implied by the CNF, so every verdict is that of the plain miter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import batch_mask, compiled_plan
from repro.netlist.traverse import transitive_fanin
from repro.sat import Solver, UNSAT, UNKNOWN
from repro.sat.tseitin import CircuitEncoder

#: conflicts each of a sweep candidate's two proof queries may spend
SWEEP_CONFLICT_BUDGET = 100
#: random 64-pattern words both sides are simulated on before a sweep
SWEEP_WORDS = 4


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence query.

    ``equivalent`` is ``True`` / ``False`` / ``None`` (budget exhausted).
    On ``False``, ``counterexample`` maps primary inputs to values and
    ``failing_outputs`` lists the ports that differ under it.
    """

    equivalent: Optional[bool]
    counterexample: Optional[Dict[str, bool]] = None
    failing_outputs: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.equivalent is True


def compared_ports(left: Circuit, right: Circuit,
                   outputs: Optional[Sequence[str]] = None) -> List[str]:
    """The output ports to compare: ``outputs`` (each must exist on
    both sides) or, by default, every port the circuits share."""
    if outputs is None:
        return [p for p in left.outputs if p in right.outputs]
    ports = list(outputs)
    for p in ports:
        if p not in left.outputs or p not in right.outputs:
            raise NetlistError(f"output {p!r} missing on one side")
    return ports


class PairwiseChecker:
    """One incremental SAT instance comparing two circuits.

    Encodes both circuits once over shared input variables and exposes
    per-output-pair queries through assumptions, so checking many pairs
    reuses all learned clauses.  :meth:`sweep` first proves the pairs'
    internal equivalences.  An optional
    :class:`~repro.sat.cnfcache.CnfCache` replays recorded CNF
    templates instead of re-walking the circuits.
    """

    def __init__(self, left: Circuit, right: Circuit, cache=None):
        self.left = left
        self.right = right
        self.solver = Solver()
        encoder = CircuitEncoder(self.solver)
        shared = {}
        self.input_vars: Dict[str, int] = {}
        if cache is not None:
            left_map = cache.encode(self.solver, left)
        else:
            left_map = encoder.encode(left)
        for n in left.inputs:
            shared[n] = left_map[n]
        if cache is not None:
            right_map = cache.encode(self.solver, right,
                                     input_vars=shared)
        else:
            right_map = encoder.encode(right, input_vars=shared)
        for n in sorted(set(left.inputs) | set(right.inputs)):
            self.input_vars[n] = shared.get(n, right_map.get(n))
        self._diff_var: Dict[str, int] = {}
        self._encoder = encoder
        self._left_map = left_map
        self._right_map = right_map
        #: sweep candidates proven (tied), refuted by a counterexample
        #: pattern, and left undecided by the per-candidate budget
        self.merged = self.refuted = self.undecided = 0

    def diff_literal(self, port: str) -> int:
        """Solver literal asserting 'port differs between the sides'."""
        if port not in self._diff_var:
            if port not in self.left.outputs or port not in self.right.outputs:
                raise NetlistError(f"output {port!r} missing on one side")
            a = self._left_map[self.left.outputs[port]]
            b = self._right_map[self.right.outputs[port]]
            self._diff_var[port] = self._encoder._encode_xor2(a, b)
        return self._diff_var[port]

    def check_pair(self, port: str,
                   conflict_budget: Optional[int] = None) -> EquivalenceResult:
        """Is one output pair equivalent?"""
        lit = self.diff_literal(port)
        status = self.solver.solve(assumptions=[lit],
                                   conflict_budget=conflict_budget)
        if status == UNSAT:
            return EquivalenceResult(True)
        if status == UNKNOWN:
            return EquivalenceResult(None)
        cex = self._extract_inputs()
        return EquivalenceResult(False, counterexample=cex,
                                 failing_outputs=(port,))

    def sweep(self, ports: Sequence[str]) -> List[str]:
        """Prove the ports' cones equal net by net; returns the ports
        (in the given order) whose two sides it did not prove equal.

        Both sides are simulated on shared random words and their cone
        nets visited topologically, left side first.  A net whose
        signature matches an earlier representative's, up to
        complement, is checked with two budgeted assumption queries:
        UNSAT ties the two with binary clauses, SAT turns the model
        into one more simulation pattern that re-splits the classes,
        UNKNOWN leaves the net unmerged.
        """
        sides = []
        cones = []
        for circuit, varmap in ((self.left, self._left_map),
                                (self.right, self._right_map)):
            plan = compiled_plan(circuit)
            cone = transitive_fanin(
                circuit, [circuit.outputs[p] for p in ports])
            sides.append((plan, [varmap[n] for n in plan.names]))
            cones.append([varmap[n] for n in plan.names if n in cone])
        rng = random.Random(2019)
        width = 64 * SWEEP_WORDS
        words = {n: rng.getrandbits(width) for n in self.input_vars}

        def simulate() -> Dict[int, int]:
            sig: Dict[int, int] = {}
            for plan, variables in sides:
                sig.update(zip(variables, plan.run(words, mask)))
            return sig

        def key(sig: int) -> int:
            # pattern 0 picks the phase; appended patterns never move it
            return sig ^ mask if sig & 1 else sig

        mask = batch_mask(SWEEP_WORDS)
        sig = simulate()
        reps: Dict[int, int] = {}    # class key -> representative literal
        proven: Dict[int, int] = {}  # var -> equal representative literal
        for var in dict.fromkeys(v for cone in cones for v in cone):
            while True:
                lit = -var if sig[var] & 1 else var
                rep = reps.setdefault(key(sig[var]), lit)
                if rep == lit:  # a new class: this net represents it
                    break
                status = self._prove_equal(lit, rep)
                if status == UNSAT:
                    proven[var] = rep if lit > 0 else -rep
                    self.merged += 1
                    break
                if status == UNKNOWN:
                    self.undecided += 1
                    break
                # refuted: the model is a pattern that splits the class
                self.refuted += 1
                value = self.solver.model_value
                for n, v in self.input_vars.items():
                    if value(v):
                        words[n] |= 1 << width
                width += 1
                mask = (1 << width) - 1
                sig = simulate()
                reps = {key(sig[abs(r)]): r for r in reps.values()}

        def root(var: int) -> int:
            return proven.get(var, var)

        return [p for p in ports
                if root(self._left_map[self.left.outputs[p]])
                != root(self._right_map[self.right.outputs[p]])]

    def _prove_equal(self, a: int, b: int) -> str:
        """Two budgeted queries for ``a == b``; each proven direction
        is added as its (implied) binary clause."""
        for x, y in ((a, -b), (-a, b)):
            status = self.solver.solve(
                assumptions=[x, y], conflict_budget=SWEEP_CONFLICT_BUDGET)
            if status != UNSAT:
                return status
            self.solver.add_clause([-x, -y])
        return UNSAT

    def _extract_inputs(self) -> Dict[str, bool]:
        model = self.solver.model()
        return {
            n: model.get(v, False) for n, v in self.input_vars.items()
        }


def check_output_pair(left: Circuit, right: Circuit, port: str,
                      conflict_budget: Optional[int] = None
                      ) -> EquivalenceResult:
    """One-shot equivalence query for a single output port."""
    return PairwiseChecker(left, right).check_pair(
        port, conflict_budget=conflict_budget)


def check_equivalence(left: Circuit, right: Circuit,
                      outputs: Optional[Sequence[str]] = None,
                      conflict_budget: Optional[int] = None
                      ) -> EquivalenceResult:
    """Full equivalence over shared (or given) output ports.

    The ports' cones are swept first; only the pairs the sweep left
    open go into the one 'any difference' miter query, which the
    caller's ``conflict_budget`` (if any) bounds.
    """
    outputs = compared_ports(left, right, outputs)
    if not outputs:
        raise NetlistError("no shared outputs to compare")
    checker = PairwiseChecker(left, right)
    open_ports = checker.sweep(outputs)
    if not open_ports:
        return EquivalenceResult(True)
    diff_lits = [checker.diff_literal(p) for p in open_ports]
    # one auxiliary 'any difference' variable
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
        p for p, lit in zip(open_ports, diff_lits) if model.get(lit, False)
    )
    return EquivalenceResult(False,
                             counterexample=checker._extract_inputs(),
                             failing_outputs=failing)


def _output_words(circuit: Circuit, words: Dict[str, int],
                  mask: int) -> Dict[str, int]:
    """Output-port values of one multi-word batch (compiled plan)."""
    plan = compiled_plan(circuit)
    values = plan.run({n: words[n] for n in circuit.inputs}, mask)
    return {p: values[plan.index[net]]
            for p, net in circuit.outputs.items()}


def nonequivalent_outputs(left: Circuit, right: Circuit,
                          outputs: Optional[Sequence[str]] = None,
                          sim_rounds: int = 8) -> List[str]:
    """All output ports on which the two circuits disagree.

    This is the work-list of the ECO flow (Section 5.2): the engine
    iterates over corresponding output pairs that remain non-equivalent.

    ``sim_rounds`` random 64-pattern words pre-classify the ports: a
    port whose simulated values differ is *exactly* non-equivalent (the
    differing pattern is a counterexample).  The cones of the
    simulation-equal ports are swept, and only the ports the sweep left
    open pay an output-pair SAT query.  ``sim_rounds=0`` disables the
    pre-pass.
    """
    outputs = compared_ports(left, right, outputs)
    bad = set()
    todo = outputs
    if sim_rounds:
        rng = random.Random(2019)
        mask = batch_mask(sim_rounds)
        # shared words keyed by sorted name: input order independent
        words = {n: rng.getrandbits(64 * sim_rounds)
                 for n in sorted(set(left.inputs) | set(right.inputs))}
        lvals = _output_words(left, words, mask)
        rvals = _output_words(right, words, mask)
        todo = []
        for port in outputs:
            if lvals[port] != rvals[port]:
                bad.add(port)
            else:
                todo.append(port)
    if todo:
        checker = PairwiseChecker(left, right)
        for port in checker.sweep(todo):
            if checker.check_pair(port).equivalent is False:
                bad.add(port)
    return [p for p in outputs if p in bad]
