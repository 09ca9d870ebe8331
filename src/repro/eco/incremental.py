"""Incremental assumption-based candidate validation (Section 5.2).

:func:`repro.eco.validate.validate_rewire` pays a full ``impl.copy()``,
cone cloning and a fresh Tseitin encoding for *every* candidate
rewire.  :class:`IncrementalValidator` amortizes all of that
across the whole search of one output: it encodes a mux-augmented
miter **once** — every candidate pin's fanin connection is cut and
replaced by a free *pin variable* — and registers each concrete rewire
behind fresh *selector literals*

    ``sel(pin, src)  ->  pin_var == src_var``

so checking a candidate is a single ``Solver.solve(assumptions=[...])``
on one persistent solver: the selectors of the candidate's sources,
the original-driver selectors of every untouched pin, and the target
port's difference literal.  No circuit copy, no re-encoding, and every
learned clause carries over to the next candidate.

Rewires sourced from the specification need no cloning here: both
circuits are encoded over shared input variables, so tying a pin
variable to the spec net's variable is logically identical to wiring
the pin to a structural clone of that cone.  The validator returns
verdicts only and never builds a patched circuit: the engine applies
the one rewire it commits, once, in place.

Legality (the Section 3.3 pin constraint and joint acyclicity) is
re-checked on one :class:`~repro.lint.patch_rules.PatchScreen` built
with the validator, so a candidate costs walks of only the fanout
cones it touches, each memoized across the search.

The validator exposes the ``solver`` + ``check_pair(port,
conflict_budget)`` surface of
:class:`~repro.cec.equivalence.PairwiseChecker`, so the verdict loop
:func:`~repro.eco.validate.check_ports` and
:meth:`RunSupervisor.check_pair_supervised` drive it exactly as they
drive the copy-and-re-encode path,
:func:`~repro.eco.validate.validate_rewire`, which validates the
journal and ``--jobs`` replays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import NetlistError
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import topological_order
from repro.sat import UNKNOWN, UNSAT, Solver
from repro.sat.tseitin import CircuitEncoder
from repro.cec.equivalence import EquivalenceResult
from repro.eco.patch import RewireOp
from repro.eco.validate import (
    ValidationOutcome,
    check_ports,
    rewire_legal,
)


class IncrementalValidator:
    """One persistent mux-augmented miter for an output search.

    Args:
        impl: current implementation ``C`` (must not be mutated while
            the validator is alive: its legality screen and fanout
            cones are built once; the engine rebuilds one per search).
        spec: revised specification ``C'``.
        pins: candidate rectification pins — the cut points.  Every
            rewire validated must have its pins in this set; the
            engine's candidates do, since their pins are the search's
            candidate pins.  Sources may be any net of either circuit,
            since both are encoded whole.
        counters: optional ``RunCounters`` receiving
            ``incremental_solves``.
    """

    def __init__(self, impl: Circuit, spec: Circuit,
                 pins: Sequence[Pin], counters=None):
        self.impl = impl
        self.spec = spec
        self.counters = counters
        self.solver = Solver()
        self._encoder = CircuitEncoder(self.solver)
        #: gate pin -> free variable spliced into the pin's fanin slot
        self._pin_var: Dict[Pin, int] = {}
        #: pin -> variable of its original driver (default selector)
        self._pin_default: Dict[Pin, int] = {}
        #: output-port pin -> free variable observed by the diff miter
        self._port_var: Dict[str, int] = {}
        self._selectors: Dict[Tuple[Pin, int], int] = {}
        self._diff_lit: Dict[str, int] = {}
        self._affected: Dict[str, List[str]] = {}
        self._assumptions: List[int] = []
        self.screen = PatchScreen(impl)

        cut: Dict[str, Dict[int, Pin]] = {}
        port_pins: List[Pin] = []
        for pin in pins:
            if pin.is_output_port:
                port_pins.append(pin)
            else:
                cut.setdefault(pin.owner, {})[pin.index] = pin

        solver = self.solver
        varmap: Dict[str, int] = {}
        for name in impl.inputs:
            varmap[name] = solver.new_var()
        for name in topological_order(impl):
            gate = impl.gates[name]
            pinmap = cut.get(name)
            operands = []
            for idx, fanin in enumerate(gate.fanins):
                pin = pinmap.get(idx) if pinmap else None
                if pin is None:
                    operands.append(varmap[fanin])
                else:
                    pv = solver.new_var()
                    self._pin_var[pin] = pv
                    self._pin_default[pin] = varmap[fanin]
                    operands.append(pv)
            varmap[name] = self._encoder.encode_gate(gate.gtype, operands)
        self._impl_map = varmap

        # the spec gets its own encoder: its constants must not reuse
        # the implementation side's constant variables
        shared = {n: varmap[n] for n in spec.inputs if n in varmap}
        self._spec_map = CircuitEncoder(solver).encode(
            spec, input_vars=shared)

        for pin in port_pins:
            port = pin.owner
            if port not in impl.outputs:
                raise NetlistError(f"no output port {port!r}")
            ov = solver.new_var()
            self._port_var[port] = ov
            self._pin_var[pin] = ov
            self._pin_default[pin] = varmap[impl.outputs[port]]

    # ------------------------------------------------------------------
    def _source_var(self, op: RewireOp) -> int:
        if op.from_spec:
            return self._spec_map[op.source_net]
        return self._impl_map[op.source_net]

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

        Ports registered as candidate pins are observed through their
        free port variable (selected per candidate); all others read
        the implementation net directly.
        """
        lit = self._diff_lit.get(port)
        if lit is None:
            a = self._port_var.get(port)
            if a is None:
                a = self._impl_map[self.impl.outputs[port]]
            b = self._spec_map[self.spec.outputs[port]]
            lit = self._encoder._encode_xor2(a, b)
            self._diff_lit[port] = lit
        return lit

    # ------------------------------------------------------------------
    def _arm(self, ops: Sequence[RewireOp]) -> None:
        """Assumption set selecting ``ops`` and pinning all other pins
        to their original drivers."""
        chosen: Dict[Pin, int] = {}
        for op in ops:  # last op per pin wins, as in apply_rewires
            if op.pin not in self._pin_var:
                # no selector could apply it: the verdict would be the
                # unpatched circuit's
                raise NetlistError(f"pin {op.pin} is outside the cut")
            chosen[op.pin] = self._source_var(op)
        assumptions = []
        for pin, pv in self._pin_var.items():
            src = chosen.get(pin)
            if src is None:
                src = self._pin_default[pin]
            assumptions.append(self._selector(pin, src))
        self._assumptions = assumptions

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
        if self.counters is not None:
            self.counters.incremental_solves += 1
        status = self.solver.solve(
            assumptions=self._assumptions + [lit],
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

        Verdict-identical to :func:`repro.eco.validate.validate_rewire`
        (see the property tests): a candidate is valid when it fixes at
        least one failing output and provably damages no passing one.
        """
        if not rewire_legal(self.screen, ops):
            return ValidationOutcome(valid=False)

        self._arm(ops)
        return check_ports(self, self._affected_outputs(ops), failing,
                           sat_budget=sat_budget, run=run)
