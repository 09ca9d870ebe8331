"""SAT-based equivalence queries over output pairs.

Output-level queries run after a SAT sweep of the compared cones
(fraiging; Kuehlmann et al., TCAD 2002; Mishchenko et al., ICCAD 2006):
see :meth:`PairwiseChecker.sweep`.  The clauses a sweep adds are
implied by the CNF, so every verdict is that of the plain miter.

A checker passed as ``context`` carries its structurally hashed
encoding and its sweep from one query to the next, so an ECO run keeps
one equivalence context from diagnosis to final verification and each
check pays only for the nets that changed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
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


#: gate types whose operands commute (the hashing encoder sorts them)
_SYMMETRIC = frozenset((GateType.AND, GateType.NAND, GateType.OR,
                        GateType.NOR, GateType.XOR, GateType.XNOR))


class _HashingEncoder(CircuitEncoder):
    """Tseitin encoder with structural hashing.

    A gate whose type and operand variables match a gate already
    encoded gets that gate's variable: both compute one function of the
    shared inputs.  The table is keyed by variables, never by net
    names, so a name reused for another function gets its own.
    """

    def __init__(self, solver):
        super().__init__(solver)
        self._table: Dict[tuple, int] = {}
        #: gates given a fresh variable
        self.encoded = 0

    def encode_gate(self, gtype: GateType, operands: Sequence[int]) -> int:
        if gtype.is_constant or gtype is GateType.BUF:
            return super().encode_gate(gtype, operands)
        if gtype in _SYMMETRIC:
            operands = sorted(operands)
        key = (gtype, *operands)
        var = self._table.get(key)
        if var is None:
            var = self._table[key] = super().encode_gate(gtype, operands)
            self.encoded += 1
        return var

    def _encode_xor2(self, a: int, b: int) -> int:
        key = ("xor2", min(a, b), max(a, b))
        var = self._table.get(key)
        if var is None:
            var = self._table[key] = super()._encode_xor2(a, b)
        return var


class PairwiseChecker:
    """One incremental SAT instance comparing two circuits.

    Encodes both circuits over shared input variables and exposes
    per-output-pair queries through assumptions, so checking many pairs
    reuses all learned clauses.  :meth:`sweep` first proves the pairs'
    internal equivalences.

    The encoding is structurally hashed and made on first use, and
    :meth:`rebind` swaps in another left circuit: one checker then
    serves as an ECO run's equivalence context, from diagnosis to final
    verification, and each check pays only for the gates that changed.
    """

    def __init__(self, left: Circuit, right: Circuit):
        self.left = left
        self.right = right
        self.solver = Solver()
        names = sorted(set(left.inputs) | set(right.inputs))
        self._left_map: Optional[Dict[str, int]] = None
        self._right_map: Optional[Dict[str, int]] = None
        self._encoder = _HashingEncoder(self.solver)
        self.input_vars = {n: self.solver.new_var() for n in names}
        self._diff_var: Dict[str, int] = {}
        # sweep state, kept across calls and rebinds: the input words
        # (a fixed seed, sorted input order), one signature bit per
        # pattern for every simulated variable, the classes and the
        # proven ties
        rng = random.Random(2019)
        self._width = 64 * SWEEP_WORDS
        self._mask = batch_mask(SWEEP_WORDS)
        self._words = {n: rng.getrandbits(self._width) for n in names}
        self._sig: Dict[int, int] = {}
        self._reps: Dict[int, int] = {}    # class key -> representative
        self._proven: Dict[int, int] = {}  # var -> equal representative
        #: variables the sweep has visited
        self.seen: Set[int] = set()
        #: sweep candidates proven (tied), refuted by a counterexample
        #: pattern, and left undecided by the per-candidate budget
        self.merged = self.refuted = self.undecided = 0
        #: solver calls made
        self.solves = 0

    @property
    def encoded(self) -> int:
        """Gates the hashing encoder gave a fresh variable so far."""
        return self._encoder.encoded

    def rebind(self, left: Circuit) -> Dict[str, int]:
        """Compare ``left`` from now on; returns its net -> variable map.

        ``left`` may be another circuit or the old one edited in place.
        Only its gates unlike any encoded before get new variables, and
        the sweep keeps its patterns, classes and ties: the new
        variables get signatures on the same patterns.
        """
        self.left = left
        self._diff_var.clear()
        self._left_map = self._encode(left)
        self._simulate(left, self._left_map)
        return self._left_map

    def left_vars(self) -> Dict[str, int]:
        """Net -> variable map of the left circuit."""
        if self._left_map is None:
            self._left_map = self._encode(self.left)
        return self._left_map

    def right_vars(self) -> Dict[str, int]:
        """Net -> variable map of the right circuit."""
        if self._right_map is None:
            self._right_map = self._encode(self.right)
        return self._right_map

    def _encode(self, circuit: Circuit) -> Dict[str, int]:
        for n in circuit.inputs:
            if n not in self.input_vars:
                raise NetlistError(
                    f"input {n!r} is unknown to the equivalence checker")
        return self._encoder.encode(circuit, input_vars=self.input_vars)

    def diff_literal(self, port: str) -> int:
        """Solver literal asserting 'port differs between the sides'."""
        if port not in self._diff_var:
            if port not in self.left.outputs or port not in self.right.outputs:
                raise NetlistError(f"output {port!r} missing on one side")
            a = self.left_vars()[self.left.outputs[port]]
            b = self.right_vars()[self.right.outputs[port]]
            self._diff_var[port] = self._encoder._encode_xor2(a, b)
        return self._diff_var[port]

    def check_pair(self, port: str,
                   conflict_budget: Optional[int] = None) -> EquivalenceResult:
        """Is one output pair equivalent?"""
        lit = self.diff_literal(port)
        status = self._solve([lit], conflict_budget)
        if status == UNSAT:
            return EquivalenceResult(True)
        if status == UNKNOWN:
            return EquivalenceResult(None)
        cex = self._extract_inputs()
        return EquivalenceResult(False, counterexample=cex,
                                 failing_outputs=(port,))

    def nets_equal(self, a: int, b: int,
                   conflict_budget: Optional[int] = None) -> bool:
        """Are the simulated variables ``a`` and ``b`` proven equal?

        Variables tied to one root are, without a solve; variables
        whose sweep signatures differ are not, since a differing
        pattern refutes them.  Any other pair gets one budgeted query,
        and UNKNOWN counts as not proven.
        """
        if self._root(a) == self._root(b):
            return True
        if self._sig[a] != self._sig[b]:
            return False
        lit = self._encoder._encode_xor2(a, b)
        return self._solve([lit], conflict_budget) == UNSAT

    def sweep(self, ports: Sequence[str]) -> List[str]:
        """Prove the ports' cones equal net by net; returns the ports
        (in the given order) whose two sides it did not prove equal.

        Both sides are simulated on shared random words and their cone
        nets visited topologically, left side first; a variable visited
        by an earlier sweep is skipped.  A net whose signature matches
        an earlier representative's, up to complement, is checked with
        two budgeted assumption queries: UNSAT ties the two with binary
        clauses, SAT turns the model into one more simulation pattern
        that re-splits the classes, UNKNOWN leaves the net unmerged.
        """
        sides = ((self.left, self.left_vars()),
                 (self.right, self.right_vars()))
        order: List[int] = []
        for circuit, varmap in sides:
            names, variables = self._simulate(circuit, varmap)
            cone = transitive_fanin(
                circuit, [circuit.outputs[p] for p in ports])
            order.extend(v for n, v in zip(names, variables) if n in cone)
        for var in dict.fromkeys(order):
            if var not in self.seen:
                self.seen.add(var)
                self._visit(var)
        (left, lmap), (right, rmap) = sides
        return [p for p in ports
                if self._root(lmap[left.outputs[p]])
                != self._root(rmap[right.outputs[p]])]

    def _simulate(self, circuit: Circuit, varmap: Dict[str, int]
                  ) -> Tuple[Sequence[str], List[int]]:
        """The circuit's nets and variables in topological order; every
        variable without a signature gets one on the sweep's words."""
        plan = compiled_plan(circuit)
        variables = [varmap[n] for n in plan.names]
        sig = self._sig
        if not all(v in sig for v in variables):
            for v, value in zip(variables, plan.run(self._words, self._mask)):
                sig.setdefault(v, value)
        return plan.names, variables

    def _key(self, sig: int) -> int:
        # pattern 0 picks the phase; appended patterns never move it
        return sig ^ self._mask if sig & 1 else sig

    def _root(self, var: int) -> int:
        return self._proven.get(var, var)

    def _visit(self, var: int) -> None:
        """Put one variable in its class: it represents a new class, is
        proven equal to the representative, or refutes it and retries."""
        sig = self._sig
        while True:
            lit = -var if sig[var] & 1 else var
            rep = self._reps.setdefault(self._key(sig[var]), lit)
            if rep == lit:  # a new class: this net represents it
                return
            status = self._prove_equal(lit, rep)
            if status == UNSAT:
                self._proven[var] = rep if lit > 0 else -rep
                self.merged += 1
                return
            if status == UNKNOWN:
                self.undecided += 1
                return
            # refuted: the model is a pattern that splits the class
            self.refuted += 1
            self._add_pattern()

    def _add_pattern(self) -> None:
        """Append the last model to the words and every signature.

        The solver holds only gate definitions and clauses they imply,
        so every variable is a function of the inputs and its model
        value is what simulating the new pattern would give.
        """
        model = self.solver.model()
        bit = 1 << self._width
        for n, v in self.input_vars.items():
            if model[v]:
                self._words[n] |= bit
        sig = self._sig
        for v in sig:
            if model[v]:
                sig[v] |= bit
        self._width += 1
        self._mask = (1 << self._width) - 1
        self._reps = {self._key(sig[abs(r)]): r
                      for r in self._reps.values()}

    def _prove_equal(self, a: int, b: int) -> str:
        """Two budgeted queries for ``a == b``; each proven direction
        is added as its (implied) binary clause."""
        for x, y in ((a, -b), (-a, b)):
            status = self._solve([x, y], SWEEP_CONFLICT_BUDGET)
            if status != UNSAT:
                return status
            self.solver.add_clause([-x, -y])
        return UNSAT

    def _solve(self, assumptions: List[int],
               conflict_budget: Optional[int]) -> str:
        self.solves += 1
        return self.solver.solve(assumptions=assumptions,
                                 conflict_budget=conflict_budget)

    def _extract_inputs(self) -> Dict[str, bool]:
        model = self.solver.model()
        return {
            n: model.get(v, False) for n, v in self.input_vars.items()
        }


def _checker_for(left: Circuit, right: Circuit,
                 context: Optional[PairwiseChecker]) -> PairwiseChecker:
    """A fresh checker, or ``context`` rebound to ``left``."""
    if context is None:
        return PairwiseChecker(left, right)
    if context.right is not right:
        raise NetlistError(
            "the equivalence context compares another right circuit")
    context.rebind(left)
    return context


def check_equivalence(left: Circuit, right: Circuit,
                      outputs: Optional[Sequence[str]] = None,
                      conflict_budget: Optional[int] = None,
                      context: Optional[PairwiseChecker] = None
                      ) -> EquivalenceResult:
    """Full equivalence over shared (or given) output ports.

    The ports' cones are swept first; only the pairs the sweep left
    open go into the one 'any difference' miter query, which the
    caller's ``conflict_budget`` (if any) bounds.  A ``context`` (a
    checker whose right side is ``right``) is rebound to ``left``, so
    the sweep visits only the nets it has not seen before.
    """
    outputs = compared_ports(left, right, outputs)
    if not outputs:
        raise NetlistError("no shared outputs to compare")
    checker = _checker_for(left, right, context)
    open_ports = checker.sweep(outputs)
    if not open_ports:
        return EquivalenceResult(True)
    diff_lits = [checker.diff_literal(p) for p in open_ports]
    # one auxiliary 'any difference' variable
    any_var = checker.solver.new_var()
    checker.solver.add_clause([-any_var] + diff_lits)
    for lit in diff_lits:
        checker.solver.add_clause([any_var, -lit])
    status = checker._solve([any_var], conflict_budget)
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
                          sim_rounds: int = 8,
                          context: Optional[PairwiseChecker] = None
                          ) -> List[str]:
    """All output ports on which the two circuits disagree.

    This is the work-list of the ECO flow (Section 5.2): the engine
    iterates over corresponding output pairs that remain non-equivalent.

    ``sim_rounds`` random 64-pattern words pre-classify the ports: a
    port whose simulated values differ is *exactly* non-equivalent (the
    differing pattern is a counterexample).  The cones of the
    simulation-equal ports are swept, and only the ports the sweep left
    open pay an output-pair SAT query.  ``sim_rounds=0`` disables the
    pre-pass.  A ``context`` is used as in :func:`check_equivalence`.
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
        checker = _checker_for(left, right, context)
        for port in checker.sweep(todo):
            if checker.check_pair(port).equivalent is False:
                bad.add(port)
    return [p for p in outputs if p in bad]
