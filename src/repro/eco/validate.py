"""Candidate checks around full-domain validation (Section 5.2).

Reasoning in the sampling domain over-approximates, so every rewire
choice is re-checked exactly before it is committed.  This module holds
what surrounds that SAT check: the legality re-checks
(:func:`rewire_legal`), the simulation screen that drops most false
positives first (:class:`SimulationFilter`), the verdict record
(:class:`ValidationOutcome`), spec-cone cloning and the in-place
application of a committed rewire (:func:`apply_rewires`).  The check
itself is :meth:`repro.eco.incremental.IncrementalValidator.validate`,
and :func:`validate_rewire` runs it once for a single rewire.  The
check is *global*: a candidate is rejected when it damages any
currently-correct output, and the failing outputs it fixes are reported
so the engine can favor multi-output repairs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import (Dict, List, Mapping, Optional, Sequence, Set, Tuple,
                    Union)

from repro.errors import PatchStructureError
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import WORD_BITS
from repro.netlist.simulate import (batch_mask, compiled_plan, eval_opcode,
                                    patterns_to_words, random_patterns)
from repro.netlist.traverse import topological_order, transitive_fanin
from repro.eco.patch import RewireOp

CLONE_PREFIX = "eco$"

#: what drives a pin in a :class:`SimulationFilter` overlay: a rewire
#: op (its source's value) or a batch word itself
PinDrive = Union[RewireOp, int]


def assert_patch_structure(patched: Circuit,
                           ops: Sequence[RewireOp]) -> None:
    """Post-commit structural assertion on a patched circuit.

    Runs the error tier of the netlist analyzer
    (:func:`repro.lint.netlist_rules.lint_netlist` with ``deep=False``)
    on the circuit a patch produced and raises
    :class:`~repro.errors.PatchStructureError` carrying the diagnostics
    when any error-severity finding exists.  The pre-SAT screen should
    make this unreachable; it is the engine's safety net against screen
    bugs, not a user-facing validator.
    """
    from repro.lint.netlist_rules import lint_netlist

    report = lint_netlist(patched, deep=False)
    bad = report.errors
    if bad:
        raise PatchStructureError(
            f"patch of {len(ops)} rewire op(s) left circuit "
            f"{patched.name!r} ill-formed: "
            + "; ".join(d.render() for d in bad),
            diagnostics=bad,
        )


def pins_unconnected(screen: PatchScreen, pins: Sequence[Pin]) -> bool:
    """The Section 3.3 restriction: no path connects any pair of pins.

    Reads the screen's memoized fanout cones, so a pin owner shared
    with earlier candidates costs no walk.
    """
    owners = {p.owner for p in pins if not p.is_output_port}
    for owner in owners:
        cone = screen.fanout_cone(owner)
        if any(other != owner and other in cone for other in owners):
            return False
    return True


def rewire_legal(screen: PatchScreen, ops: Sequence[RewireOp]) -> bool:
    """Whether ``ops`` may be validated at all on ``screen``'s circuit.

    The pin constraint of :func:`pins_unconnected`, and joint
    acyclicity: :meth:`PatchScreen.cycle_path` masks the edges the
    rewires remove and adds all proposed edges at once, so a cycle
    through several new edges is found.
    """
    return pins_unconnected(screen, [op.pin for op in ops]) \
        and screen.cycle_path(ops) is None


def clone_spec_cone(work: Circuit, spec: Circuit, net: str,
                    clone_map: Dict[str, str]) -> str:
    """Instantiate the cone of a specification net inside ``work``.

    Primary inputs are shared by name; previously cloned gates (tracked
    in ``clone_map``) are reused, so overlapping cones from successive
    rewires share logic.  Returns the name of the clone of ``net``.
    """
    if net in spec.inputs:
        return net
    if net in clone_map:
        return clone_map[net]
    for gname in topological_order(spec, roots=[net]):
        if gname in clone_map:
            continue
        gate = spec.gates[gname]
        fanins = [
            f if f in spec.inputs else clone_map[f] for f in gate.fanins
        ]
        clone_name = f"{CLONE_PREFIX}{gname}"
        while work.has_net(clone_name):
            clone_name += "_"
        work.add_gate(clone_name, gate.gtype, fanins)
        clone_map[gname] = clone_name
    return clone_map[net]


def spec_cone_clones(spec: Circuit, net: str,
                     clone_map: Dict[str, str]) -> List[str]:
    """Gates of ``net``'s spec cone that ``clone_map`` has no clone of.

    These are the gates :func:`clone_spec_cone` instantiates for
    ``net`` when ``net`` itself is not cloned yet; a primary input
    needs none.
    """
    if net in spec.inputs:
        return []
    return [g for g in topological_order(spec, roots=[net])
            if g not in clone_map]


def clones_needed(spec: Circuit, ops: Sequence[RewireOp],
                  clone_map: Dict[str, str]) -> int:
    """How many gates :func:`apply_rewires` would clone for ``ops``.

    The union of the spec cones of the ops' specification sources,
    minus the gates ``clone_map`` already cloned; primary inputs are
    shared, not cloned.  Nothing is built.
    """
    needed: Set[str] = set()
    for op in ops:
        if op.from_spec and op.source_net not in clone_map:
            needed.update(spec_cone_clones(spec, op.source_net, clone_map))
    return len(needed)


def apply_rewires(work: Circuit, spec: Circuit, ops: Sequence[RewireOp],
                  clone_map: Dict[str, str]) -> Set[str]:
    """Apply rewire operations in place; returns newly cloned gate names.

    ``clone_map`` persists across calls so later rewires reuse earlier
    clones.
    """
    before = set(clone_map.values())
    for op in ops:
        if op.from_spec:
            source = clone_spec_cone(work, spec, op.source_net, clone_map)
        else:
            source = op.source_net
        work.rewire_pin(op.pin, source)
    return set(clone_map.values()) - before


class SimulationFilter:
    """The search's one simulation of an output's samples.

    Sampling-domain reasoning over-approximates, so many rewiring
    choices are false positives.  Before paying for a SAT proof, the
    candidate is re-simulated on the error samples plus fresh random
    words: any output mismatch on any pattern disqualifies it
    immediately.  Passing the screen is necessary but not sufficient —
    SAT still gives the final word.

    All words are packed into one multi-word batch and evaluated
    through the circuits' compiled plans once at construction, which
    also records each output's *base verdict*: whether the unpatched
    circuit matches the spec on the words.  :meth:`for_samples` packs
    the samples into the leading words, sample ``k`` at bit ``k``, so
    the same base values also give the flip credit of the pin ranking
    (:meth:`flip_credit`), the counts of the rectification utility
    (:meth:`error_mask`, :meth:`value`, :meth:`spec_value`) and the
    ``Xi(c)`` check of the choice enumeration
    (:meth:`assignment_misses`).

    Each candidate is screened as a *value overlay*
    (:meth:`_overlay`): only the plan steps downstream of its rewired
    gates are re-evaluated, in plan order, and only the outputs they
    reach (or that it rewires) are compared; every other output keeps
    its base verdict.  The steps and outputs below a set of rewired
    gates are memoized, so a candidate costs its fanout cone, not the
    circuit.
    """

    def __init__(self, impl: Circuit, spec: Circuit,
                 words_list: Sequence[Dict[str, int]],
                 counters=None, num_samples: int = 0):
        self.impl = impl
        self.spec = spec
        self.words_list = list(words_list)
        self.counters = counters
        self.width = max(1, len(self.words_list))
        self.mask = batch_mask(self.width)
        #: the batch bits holding the samples: the low ``num_samples``
        self.num_samples = num_samples
        self.sample_mask = (1 << num_samples) - 1
        batch: Dict[str, int] = {}
        for k, words in enumerate(self.words_list):
            shift = WORD_BITS * k
            for name in impl.inputs:
                batch[name] = batch.get(name, 0) | \
                    (words.get(name, 0) << shift)
        self.plan = compiled_plan(impl)
        self.spec_plan = compiled_plan(spec)
        spec_batch = {n: batch.get(n, 0) for n in spec.inputs}
        self.base = self.plan.run(batch, self.mask)
        self.spec_base = self.spec_plan.run(spec_batch, self.mask)
        if counters is not None:
            counters.plan_evals += 2
        index = self.plan.index
        spec_index = self.spec_plan.index
        #: port -> the spec's value on the words
        self._want: Dict[str, int] = {
            port: self.spec_base[spec_index[spec.outputs[port]]]
            for port in impl.outputs}
        #: ports the unpatched circuit already gets wrong on the words
        self._base_wrong: List[str] = [
            port for port, net in impl.outputs.items()
            if self.base[index[net]] != self._want[port]]
        #: plan index -> ports observing that net
        self._ports_at: Dict[int, List[str]] = {}
        for port, net in impl.outputs.items():
            self._ports_at.setdefault(index[net], []).append(port)
        self._fanout: Optional[List[List[int]]] = None
        self._cones: Dict[frozenset, Tuple[List[tuple], frozenset]] = {}
        self._port_cones: Dict[str, List[tuple]] = {}

    @classmethod
    def for_samples(cls, impl: Circuit, spec: Circuit,
                    samples: Sequence[Mapping[str, bool]], seed: int,
                    counters=None) -> "SimulationFilter":
        """The filter of one output search: every sample, 64 to a
        word, then two random words drawn from ``seed``."""
        words_list = [patterns_to_words(impl.inputs,
                                        samples[k:k + WORD_BITS])
                      for k in range(0, len(samples), WORD_BITS)]
        rng = random.Random(seed)
        words_list += [random_patterns(impl.inputs, rng)
                       for _ in range(2)]
        return cls(impl, spec, words_list, counters=counters,
                   num_samples=len(samples))

    def value(self, net: str) -> int:
        """The batch value of implementation net ``net``."""
        return self.base[self.plan.index[net]]

    def spec_value(self, net: str) -> int:
        """The batch value of spec net ``net``."""
        return self.spec_base[self.spec_plan.index[net]]

    def error_mask(self, port: str) -> int:
        """The samples on which the implementation gets ``port``
        wrong: the sampled error region ``E``, bit ``k`` for sample
        ``k``."""
        return (self.value(self.impl.outputs[port]) ^ self._want[port]) \
            & self.sample_mask

    def _source_value(self, op: PinDrive,
                      updated: Dict[int, int]) -> int:
        if isinstance(op, int):
            return op
        if op.from_spec:
            return self.spec_value(op.source_net)
        idx = self.plan.index[op.source_net]
        return updated.get(idx, self.base[idx])

    def _downstream(self, owners: frozenset
                    ) -> Tuple[List[tuple], frozenset]:
        """Plan steps downstream of the gates ``owners`` (inclusive, in
        plan order) and the ports they reach, memoized per set."""
        hit = self._cones.get(owners)
        if hit is not None:
            return hit
        plan = self.plan
        fanout = self._fanout
        if fanout is None:
            fanout = [[] for _ in plan.names]
            for out, _opcode, fanins in plan.steps:
                for j in fanins:
                    fanout[j].append(out)
            self._fanout = fanout
        seen = set(owners)
        stack = list(owners)
        while stack:
            for nxt in fanout[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        # a gate's plan step sits num_inputs before its net index
        first = plan.num_inputs
        steps = [plan.steps[i - first] for i in sorted(seen)]
        reached = frozenset(
            port for i in seen for port in self._ports_at.get(i, ()))
        hit = (steps, reached)
        self._cones[owners] = hit
        return hit

    def _overlay(self, steps: Sequence[tuple], updated: Dict[int, int],
                 gate_ops: Mapping[int, Mapping[int, PinDrive]]
                 ) -> Dict[int, int]:
        """Re-evaluate ``steps`` over the base values.

        ``updated`` holds the nets already changed (plan index -> new
        value) and collects every step whose value changes; a step is
        evaluated only when one of its fanins changed or ``gate_ops``
        drives one of its pins (pin position -> rewire op, or the word
        itself).
        """
        base = self.base
        mask = self.mask
        for out, opcode, fanins in steps:
            pin_ops = gate_ops.get(out)
            if pin_ops is None:
                for j in fanins:
                    if j in updated:
                        break
                else:
                    continue
                operands = [updated.get(j, base[j]) for j in fanins]
            else:
                operands = []
                for pos, j in enumerate(fanins):
                    op = pin_ops.get(pos)
                    if op is not None:
                        operands.append(self._source_value(op, updated))
                    else:
                        operands.append(updated.get(j, base[j]))
            new = eval_opcode(opcode, operands, mask)
            if new != base[out]:
                updated[out] = new
        return updated

    def _cone_steps(self, port: str) -> List[tuple]:
        """Plan steps of ``port``'s fanin cone, in plan order, memoized
        per port."""
        hit = self._port_cones.get(port)
        if hit is None:
            plan = self.plan
            first = plan.num_inputs
            cone = transitive_fanin(self.impl, [self.impl.outputs[port]],
                                    include_inputs=False)
            hit = self._port_cones[port] = [
                plan.steps[i - first]
                for i in sorted(plan.index[n] for n in cone)]
        return hit

    def flip_credit(self, port: str, nets: Sequence[str]) -> Dict[str, int]:
        """Per net of ``nets``: the error samples of ``port`` on which
        complementing the net corrects the output.

        ``nets`` lie in the output's fanin cone; each flip is one
        :meth:`_overlay` walk over the cone's plan steps after the
        flipped net.
        """
        index = self.plan.index
        out = index[self.impl.outputs[port]]
        want = self._want[port]
        errors = self.error_mask(port)
        steps = self._cone_steps(port)
        outs = [step[0] for step in steps]
        credit: Dict[str, int] = {}
        for net in nets:
            i = index[net]
            updated = self._overlay(steps[bisect_right(outs, i):],
                                    {i: self.base[i] ^ self.mask}, {})
            flipped = updated.get(out, self.base[out])
            credit[net] = bin(~(flipped ^ want) & errors).count("1")
        return credit

    def assignment_misses(self, port: str,
                          pins: Sequence[Pin]) -> List[int]:
        """Per assignment ``a`` of ``pins``: the samples on which
        ``port`` misses the spec while every pin ``i`` is driven with
        bit ``i`` of ``a``, all ones or all zeros.

        Entry ``a`` is ``(h_a ^ f') & sample_mask``: one
        :meth:`_overlay` walk over the port's cone steps per
        assignment, the steps shared with :meth:`flip_credit`.  The
        output pin of ``port`` drives the output itself; a pin outside
        the cone changes nothing.
        """
        index = self.plan.index
        out = index[self.impl.outputs[port]]
        port_pin = Pin.output(port)
        steps = self._cone_steps(port)
        ones = self.mask
        misses: List[int] = []
        for a in range(1 << len(pins)):
            drives: Dict[int, Dict[int, PinDrive]] = {}
            value: Optional[int] = None
            for i, pin in enumerate(pins):
                word = ones if a >> i & 1 else 0
                if pin == port_pin:
                    value = word
                elif not pin.is_output_port:
                    drives.setdefault(index[pin.owner], {})[pin.index] = word
            if value is None:
                value = self._overlay(steps, {}, drives).get(
                    out, self.base[out])
            misses.append((value ^ self._want[port]) & self.sample_mask)
        return misses

    def passes(self, ops: Sequence[RewireOp], target: str,
               failing: Sequence[str]) -> bool:
        """Screen one candidate rewire.

        Requires the target output and every currently-passing output to
        match the spec on every simulated pattern; other failing outputs
        may remain wrong (SAT validation later reports which of them the
        rewire happens to fix).
        """
        failing_set = set(failing) - {target}
        index = self.plan.index
        base = self.base
        if self.counters is not None:
            self.counters.plan_evals += 1

        # last op per pin wins, as in the reference per-pattern screen
        gate_ops: Dict[int, Dict[int, RewireOp]] = {}
        port_ops: Dict[str, RewireOp] = {}
        for op in ops:
            if op.pin.is_output_port:
                port_ops[op.pin.owner] = op
            else:
                gate_ops.setdefault(
                    index[op.pin.owner], {})[op.pin.index] = op

        steps, reached = self._downstream(frozenset(gate_ops))
        # an output the rewire cannot change keeps its base verdict
        for port in self._base_wrong:
            if port not in failing_set and port not in port_ops \
                    and port not in reached:
                return False

        updated = self._overlay(steps, {}, gate_ops)
        want = self._want
        for port, op in port_ops.items():
            if port in want and port not in failing_set and \
                    self._source_value(op, updated) != want[port]:
                return False
        for port in reached:
            if port in port_ops or port in failing_set:
                continue
            j = index[self.impl.outputs[port]]
            if updated.get(j, base[j]) != want[port]:
                return False
        return True

    def passes_batch(self, candidates: Sequence[Sequence[RewireOp]],
                     target: str,
                     failing: Sequence[str]) -> List[bool]:
        """Screen a batch of candidates; one :meth:`passes` verdict
        per candidate.  The engine screens each candidate on its own,
        when the search reaches it."""
        return [self.passes(ops, target, failing) for ops in candidates]


@dataclass
class ValidationOutcome:
    """Verdict of one full-domain validation."""

    valid: bool
    #: previously-failing ports this rewire provably fixes
    fixed: Tuple[str, ...] = ()


def validate_rewire(impl: Circuit, spec: Circuit, ops: Sequence[RewireOp],
                    failing: Sequence[str],
                    run=None) -> ValidationOutcome:
    """Exact check of one rewire on the full input domain, one-shot.

    Validates ``ops`` on an
    :class:`~repro.eco.incremental.IncrementalValidator` cut at the
    ops' own pins, which the call builds and drops: the verdict
    depends only on the arguments, and ``impl`` is left untouched.
    The engine proves journal replays and the ``--jobs`` merge's
    replays this way; the search keeps one validator per output.
    """
    from repro.eco.incremental import IncrementalValidator

    validator = IncrementalValidator(impl, spec, [op.pin for op in ops])
    return validator.validate(ops, failing, run=run)
