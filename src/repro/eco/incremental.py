"""Incremental assumption-based candidate validation (Section 5.2).

Re-encoding the patched circuit for every candidate rewire would pay a
circuit copy, cone cloning and a fresh Tseitin encoding per candidate.
:class:`IncrementalValidator` amortizes all of that across the whole
search of one output: it grows one mux-augmented miter on one
persistent solver — every candidate pin's fanin connection is cut and
replaced by a free *pin variable* — and registers each concrete rewire
behind fresh *selector literals*

    ``sel(pin, src)  ->  pin_var == src_var``

so checking a candidate is a single ``Solver.solve(assumptions=[...])``:
the selectors of the candidate's sources, the original-driver
selectors of every other pin encoded so far, and the target port's
difference literal.  No circuit copy, and every learned clause carries
over to the next candidate.

The miter is encoded lazily, net by net on first use: a query encodes
the cones of the ports it compares and of the sources it selects, and
nothing else.  A search touches a few cones of a large design, so its
solver stays the size of those cones, not of the two circuits.

Rewires sourced from the specification need no cloning here: both
circuits are encoded over shared input variables, so tying a pin
variable to the spec net's variable is logically identical to wiring
the pin to a structural clone of that cone.  The validator returns
verdicts only and never builds a patched circuit: the engine applies
the one rewire it commits, once, in place.

Legality (the Section 3.3 pin constraint and joint acyclicity) is
re-checked on one :class:`~repro.lint.patch_rules.PatchScreen` of the
implementation, the search's own when the engine builds the validator,
so a candidate costs walks of only the fanout cones it touches, each
memoized across the search.

This is the engine's one validator.  The search keeps one per output;
journal replay and the ``--jobs`` merge build a one-shot validator per
replayed commit through :func:`~repro.eco.validate.validate_rewire`.
The validator exposes the ``solver`` + ``check_pair(port,
conflict_budget)`` surface of
:class:`~repro.cec.equivalence.PairwiseChecker`, so
:meth:`RunSupervisor.check_pair_supervised` drives its queries as it
drives any checker's.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import NetlistError
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.sat import UNKNOWN, UNSAT, Solver
from repro.sat.tseitin import CircuitEncoder
from repro.cec.equivalence import EquivalenceResult
from repro.eco.patch import RewireOp
from repro.eco.validate import ValidationOutcome, rewire_legal


class IncrementalValidator:
    """One persistent, lazily encoded mux-augmented miter for an output
    search.

    Args:
        impl: current implementation ``C`` (must not be mutated while
            the validator is alive: its legality screen, fanout cones
            and encoding are built against it; the engine builds one
            per search).
        spec: revised specification ``C'``.
        pins: candidate rectification pins — the cut points.  Every
            rewire validated must have its pins in this set; the
            engine's candidates do, since their pins are the search's
            candidate pins.  Sources may be any net of either circuit;
            each is encoded when first selected.
        counters: optional ``RunCounters`` receiving
            ``incremental_solves``.
        screen: a :class:`PatchScreen` of ``impl`` to re-check legality
            on (the search's own, so its sink map is built once); by
            default the validator builds one.
    """

    def __init__(self, impl: Circuit, spec: Circuit,
                 pins: Sequence[Pin], counters=None,
                 screen: Optional[PatchScreen] = None):
        self.impl = impl
        self.spec = spec
        self.counters = counters
        self.solver = Solver()
        self._encoder = CircuitEncoder(self.solver)
        # the spec gets its own encoder: its constants must not reuse
        # the implementation side's constant variables
        self._spec_encoder = CircuitEncoder(self.solver)
        #: the cut: gate pins grouped by owner, and the port pins
        self._cut: Dict[str, Dict[int, Pin]] = {}
        self._port_pins: Dict[str, Pin] = {}
        for pin in pins:
            if pin.is_output_port:
                if pin.owner not in impl.outputs:
                    raise NetlistError(f"no output port {pin.owner!r}")
                self._port_pins[pin.owner] = pin
            else:
                gate = impl.gates.get(pin.owner)
                # a pin the circuit lacks is never encoded, so it stays
                # outside the cut
                if gate is not None and pin.index < len(gate.fanins):
                    self._cut.setdefault(pin.owner, {})[pin.index] = pin
        #: encoded cut pin -> free variable spliced into its fanin slot
        self._pin_var: Dict[Pin, int] = {}
        #: encoded cut pin -> variable of its original driver
        self._pin_default: Dict[Pin, int] = {}
        self._input_var: Dict[str, int] = {}
        self._impl_map: Dict[str, int] = {}
        self._spec_map: Dict[str, int] = {}
        self._selectors: Dict[Tuple[Pin, int], int] = {}
        self._diff_lit: Dict[str, int] = {}
        self._affected: Dict[str, List[str]] = {}
        #: the armed candidate: pin -> its op (last op per pin wins)
        self._chosen: Dict[Pin, RewireOp] = {}
        self.screen = screen if screen is not None else PatchScreen(impl)

    # ------------------------------------------------------------------
    # lazy encoding
    # ------------------------------------------------------------------
    def _input(self, name: str) -> int:
        """The one variable a primary input has on both sides."""
        var = self._input_var.get(name)
        if var is None:
            var = self.solver.new_var()
            self._input_var[name] = var
        return var

    def _encode(self, circuit: Circuit, net: str, varmap: Dict[str, int],
                encoder: CircuitEncoder,
                cut: Mapping[str, Dict[int, Pin]]) -> int:
        """Variable of ``net``, encoding its unencoded cone first.

        A fanin slot of a ``cut`` pin becomes the pin's free variable,
        with the driver's variable recorded as its default.
        """
        stack = [net]
        while stack:
            name = stack[-1]
            if name in varmap:
                stack.pop()
                continue
            gate = circuit.gates.get(name)
            if gate is None:
                if not circuit.is_input(name):
                    raise NetlistError(
                        f"no net {name!r} in {circuit.name!r}")
                varmap[name] = self._input(name)
                stack.pop()
                continue
            pending = [f for f in gate.fanins if f not in varmap]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            pins = cut.get(name)
            operands = []
            for idx, fanin in enumerate(gate.fanins):
                pin = pins.get(idx) if pins else None
                if pin is None:
                    operands.append(varmap[fanin])
                else:
                    pv = self.solver.new_var()
                    self._pin_var[pin] = pv
                    self._pin_default[pin] = varmap[fanin]
                    operands.append(pv)
            varmap[name] = encoder.encode_gate(gate.gtype, operands)
        return varmap[net]

    def _impl_var(self, net: str) -> int:
        return self._encode(self.impl, net, self._impl_map, self._encoder,
                            self._cut)

    def _spec_var(self, net: str) -> int:
        return self._encode(self.spec, net, self._spec_map,
                            self._spec_encoder, {})

    def _source_var(self, op: RewireOp) -> int:
        if op.from_spec:
            return self._spec_var(op.source_net)
        return self._impl_var(op.source_net)

    def _selector(self, pin: Pin, src_var: int) -> int:
        """Selector literal asserting ``pin_var == src_var``."""
        key = (pin, src_var)
        sel = self._selectors.get(key)
        if sel is None:
            solver = self.solver
            sel = solver.new_var()
            pv = self._pin_var[pin]
            solver.add_clause([-sel, -pv, src_var])
            solver.add_clause([-sel, pv, -src_var])
            self._selectors[key] = sel
        return sel

    def diff_literal(self, port: str) -> int:
        """Literal asserting 'port differs between C and C''.

        Encodes the port's cones on first use.  A port registered as a
        candidate pin is observed through its free port variable
        (selected per candidate); all others read the implementation
        net directly.
        """
        lit = self._diff_lit.get(port)
        if lit is None:
            a = self._impl_var(self.impl.outputs[port])
            pin = self._port_pins.get(port)
            if pin is not None:
                pv = self.solver.new_var()
                self._pin_var[pin] = pv
                self._pin_default[pin] = a
                a = pv
            b = self._spec_var(self.spec.outputs[port])
            lit = self._encoder._encode_xor2(a, b)
            self._diff_lit[port] = lit
        return lit

    # ------------------------------------------------------------------
    def _arm(self, ops: Sequence[RewireOp]) -> None:
        """Select ``ops`` for the following queries."""
        chosen: Dict[Pin, RewireOp] = {}
        for op in ops:  # last op per pin wins, as in apply_rewires
            pin = op.pin
            if pin.is_output_port:
                inside = pin.owner in self._port_pins
            else:
                inside = pin.index in self._cut.get(pin.owner, ())
            if not inside:
                # no selector could apply it: the verdict would be the
                # unpatched circuit's
                raise NetlistError(f"pin {pin} is outside the cut")
            chosen[pin] = op
        self._chosen = chosen

    def _assumptions(self) -> List[int]:
        """One selector per pin encoded so far: the armed source of a
        chosen pin, the original driver of any other.

        Encoding a chosen source can encode further cut pins, whose
        own sources may then be needed, so this repeats until no new
        pin appears.  A pin that was never encoded is in no clause, so
        it needs no selector.
        """
        sources: Dict[Pin, int] = {}
        done = 0
        while done < len(self._pin_var):
            fresh = list(self._pin_var)[done:]
            done += len(fresh)
            for pin in fresh:
                op = self._chosen.get(pin)
                if op is not None:
                    sources[pin] = self._source_var(op)
        return [self._selector(pin, sources.get(pin, default))
                for pin, default in self._pin_default.items()]

    def check_pair(self, port: str,
                   conflict_budget: Optional[int] = None
                   ) -> EquivalenceResult:
        """Is the armed candidate equivalent to the spec on ``port``?

        Same surface as :meth:`PairwiseChecker.check_pair`, so the run
        supervisor's budgeted query drives this unchanged.  A
        refutation carries no counterexample: the verdict loop reads
        verdicts only, so the SAT model is never decoded.
        """
        lit = self.diff_literal(port)
        assumptions = self._assumptions()
        if self.counters is not None:
            self.counters.incremental_solves += 1
        status = self.solver.solve(
            assumptions=assumptions + [lit],
            conflict_budget=conflict_budget)
        if status == UNSAT:
            return EquivalenceResult(True)
        if status == UNKNOWN:
            return EquivalenceResult(None)
        return EquivalenceResult(False, failing_outputs=(port,))

    # ------------------------------------------------------------------
    def _affected_outputs(self, ops: Sequence[RewireOp]) -> List[str]:
        """Output ports whose function a rewire of ``ops`` can change.

        Rewiring a gate input pin changes only the fanout cone of the
        gate, and the fanout relation is not altered by the rewire
        itself, so per-owner dependence is read off the screen's
        memoized cone of ``impl`` and shared across candidates.
        """
        affected: Set[str] = set()
        for op in ops:
            if op.pin.is_output_port:
                affected.add(op.pin.owner)
                continue
            owner = op.pin.owner
            ports = self._affected.get(owner)
            if ports is None:
                cone = self.screen.fanout_cone(owner)
                ports = [p for p, net in self.impl.outputs.items()
                         if net in cone]
                self._affected[owner] = ports
            affected.update(ports)
        return sorted(affected)

    # ------------------------------------------------------------------
    def validate(self, ops: Sequence[RewireOp], failing: Sequence[str],
                 sat_budget: Optional[int] = None,
                 run=None) -> ValidationOutcome:
        """Exact full-domain check of one candidate, incrementally.

        A candidate is valid when it fixes at least one failing output
        and provably damages no passing one.  Each output the rewire
        can change is queried in name order: a proven port that was
        failing is fixed; a refuted or UNKNOWN port that was passing
        rejects the candidate at once.  Only verdicts are read.

        With a :class:`~repro.runtime.supervisor.RunSupervisor` as
        ``run``, each query goes through
        :meth:`RunSupervisor.check_pair_supervised` (one budgeted
        solve, conflicts charged to the run) and the deadline is
        checked between ports; budget exhaustion then raises a
        :class:`~repro.errors.ResourceBudgetExceeded` subclass.
        Otherwise each query gets ``sat_budget``.  The property tests
        hold this to the verdicts of the copy-and-re-encode oracle in
        ``tests/eco/reference.py``.
        """
        if not rewire_legal(self.screen, ops):
            return ValidationOutcome(valid=False)

        self._arm(ops)
        failing_set = set(failing)
        fixed: List[str] = []
        for port in self._affected_outputs(ops):
            if run is not None:
                run.checkpoint()
                result = run.check_pair_supervised(self, port)
            else:
                result = self.check_pair(port, conflict_budget=sat_budget)
            if result.equivalent is True:
                if port in failing_set:
                    fixed.append(port)
                continue
            if port not in failing_set:
                # damaged a passing output, or cannot prove it intact
                return ValidationOutcome(valid=False)
        if not fixed:
            return ValidationOutcome(valid=False)
        return ValidationOutcome(valid=True, fixed=tuple(fixed))
