"""Whole-circuit reference walks of the candidate search (test oracles).

* The Section 3.3 pin constraint and the joint acyclicity check exactly
  as candidate validation made them before it re-checked legality on a
  :class:`~repro.lint.patch_rules.PatchScreen`: every call rebuilds the
  circuit's fanout map (once per pin for the pin constraint) before
  walking it.  The differential tests pin
  :func:`repro.eco.validate.pins_unconnected` and
  :meth:`PatchScreen.cycle_path` to these verdicts.
* :func:`whole_plan_passes`, the simulation screen as it walked every
  plan step and compared every output per candidate, the oracle of
  :meth:`repro.eco.validate.SimulationFilter.passes`.
* :func:`whole_cast_candidates`, the per-pin candidate scan over every
  net of both circuits cast whole into the sampling domain, the oracle
  of :meth:`repro.eco.rewiring.RewiringContext.candidates_for_pin`.
* :func:`validate_rewire`, full-domain validation by copying the
  implementation, applying the rewire with cloned spec cones and
  re-encoding both whole circuits on a fresh
  :class:`~repro.cec.equivalence.PairwiseChecker`, the oracle of
  :meth:`repro.eco.incremental.IncrementalValidator.validate`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.cec.equivalence import PairwiseChecker
from repro.eco import rewiring
from repro.eco.patch import RewireOp
from repro.eco.rewiring import RewireCandidate
from repro.eco.validate import (
    ValidationOutcome,
    apply_rewires,
    rewire_legal,
)
from repro.lint.patch_rules import PatchScreen
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.simulate import eval_opcode
from repro.netlist.traverse import dependent_outputs, transitive_fanout


def topological_constraint_ok(impl: Circuit, pins: Sequence[Pin]) -> bool:
    """The Section 3.3 restriction: no path connects any pair of pins."""
    gate_pins = [p for p in pins if not p.is_output_port]
    owners = {p.owner for p in gate_pins}
    for pin in gate_pins:
        downstream = transitive_fanout(impl, [pin.owner])
        downstream.discard(pin.owner)
        if downstream & owners:
            return False
    return True


def rewire_acyclic(impl: Circuit, ops: Sequence[RewireOp]) -> bool:
    """No implementation-sourced rewire may close a combinational cycle.

    Checked jointly: with several simultaneous rewires a cycle can pass
    through more than one new edge, so the test walks the fanout
    relation augmented with all proposed edges at once.
    """
    extra_edges: Dict[str, Set[str]] = {}
    for op in ops:
        if op.from_spec or op.pin.is_output_port:
            continue
        extra_edges.setdefault(op.source_net, set()).add(op.pin.owner)

    if not extra_edges:
        return True

    fanout: Dict[str, List[str]] = {}
    for g in impl.gates.values():
        for i, f in enumerate(g.fanins):
            # skip edges that the rewires remove
            if any(op.pin == Pin.gate(g.name, i) for op in ops):
                continue
            fanout.setdefault(f, []).append(g.name)
    for src, dsts in extra_edges.items():
        fanout.setdefault(src, []).extend(dsts)

    # cycle check via DFS from the new edges' sources
    state: Dict[str, int] = {}

    def dfs(net: str) -> bool:
        stack = [(net, iter(fanout.get(net, ())))]
        state[net] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                st = state.get(nxt)
                if st == 0:
                    return False  # back edge: cycle
                if st is None:
                    state[nxt] = 0
                    stack.append((nxt, iter(fanout.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
        return True

    for src in extra_edges:
        if state.get(src) is None:
            if not dfs(src):
                return False
    return True


def whole_plan_passes(filt, ops: Sequence[RewireOp], target: str,
                      failing: Sequence[str]) -> bool:
    """Screen one candidate on a :class:`SimulationFilter`'s words by
    walking every step of its plan and comparing every output.

    A source is read at the owner's step, so an implementation source
    later in plan order than its pin's gate reads its base value.
    """
    failing_set = set(failing) - {target}
    plan = filt.plan
    index = plan.index
    base = filt.base
    spec_index = filt.spec_plan.index

    def source_value(op: RewireOp, updated: Dict[int, int]) -> int:
        if op.from_spec:
            return filt.spec_base[spec_index[op.source_net]]
        idx = index[op.source_net]
        return updated.get(idx, base[idx])

    # last op per pin wins
    gate_ops: Dict[int, Dict[int, RewireOp]] = {}
    port_ops: Dict[str, RewireOp] = {}
    for op in ops:
        if op.pin.is_output_port:
            port_ops[op.pin.owner] = op
        else:
            gate_ops.setdefault(
                index[op.pin.owner], {})[op.pin.index] = op

    updated: Dict[int, int] = {}
    for out, opcode, fanins in plan.steps:
        pin_ops = gate_ops.get(out, {})
        if not pin_ops and not any(j in updated for j in fanins):
            continue
        operands = []
        for pos, j in enumerate(fanins):
            op = pin_ops.get(pos)
            operands.append(source_value(op, updated) if op is not None
                            else updated.get(j, base[j]))
        new = eval_opcode(opcode, operands, filt.mask)
        if new != base[out]:
            updated[out] = new

    for port, net in filt.impl.outputs.items():
        if port in failing_set:
            continue
        op = port_ops.get(port)
        if op is not None:
            got = source_value(op, updated)
        else:
            got = updated.get(index[net], base[index[net]])
        if got != filt.spec_base[spec_index[filt.spec.outputs[port]]]:
            return False
    return True


def whole_cast_candidates(ctx, pin: Pin) -> List[RewireCandidate]:
    """Candidate nets for ``pin``, scanning every net of both circuits
    against the structural filter, over whole-circuit casts made in
    ``ctx``'s sampling domain."""
    config = ctx.config
    impl, spec = ctx.impl, ctx.spec
    impl_z = ctx.domain.cast_circuit(impl)
    spec_z = ctx.domain.cast_circuit(spec)
    mask = ctx.spec_support_mask
    driver = impl.pin_driver(pin)
    driver_z = impl_z[driver]
    unreachable = set() if pin.is_output_port \
        else transitive_fanout(impl, [pin.owner])

    scored: List[RewireCandidate] = []
    if config.use_impl_nets:
        for net in impl.nets():
            if net == driver or net in unreachable:
                continue
            if ctx.impl_supports[net] & ~mask:
                continue
            scored.append(RewireCandidate(
                net=net, from_spec=False,
                utility=ctx.utility(driver_z, impl_z[net]),
                z_function=impl_z[net], level=ctx.impl_levels[net]))
    if config.use_spec_nets:
        for net in spec.gates:
            if ctx.spec_supports[net] & ~mask:
                continue
            scored.append(RewireCandidate(
                net=net, from_spec=True,
                utility=ctx.utility(driver_z, spec_z[net]),
                z_function=spec_z[net], level=ctx.spec_levels[net]))
    if config.utility_ordering:
        scored.sort(key=lambda c: (-c.utility, c.from_spec, c.level))
    else:
        scored.sort(key=lambda c: (c.from_spec, c.net))
    kept = scored[:rewiring.MAX_REWIRE_CANDIDATES]
    out_net = ctx.spec_out_net
    if pin.is_output_port and config.use_spec_nets and not any(
            c.from_spec and c.net == out_net for c in kept):
        kept.append(RewireCandidate(
            net=out_net, from_spec=True,
            utility=ctx.utility(driver_z, spec_z[out_net]),
            z_function=spec_z[out_net], level=ctx.spec_levels[out_net]))
    trivial = RewireCandidate(
        net=driver, from_spec=False, utility=0.0, z_function=driver_z,
        level=ctx.impl_levels[driver], trivial=True)
    return [trivial] + kept


def validate_rewire(impl: Circuit, spec: Circuit, ops: Sequence[RewireOp],
                    failing: Sequence[str],
                    run=None) -> ValidationOutcome:
    """Exact check of a candidate rewire on the full input domain, by
    copy, apply and re-encode.

    Legality is re-checked on a :class:`PatchScreen` built for the
    call.  The rewire is applied with cloned spec cones to a private
    copy of ``impl``, which is left untouched, and every output the
    changed nets reach is checked on a fresh structurally hashed
    :class:`PairwiseChecker` of the copy, in name order: a proven port
    that was failing is fixed, and a refuted or UNKNOWN port that was
    passing rejects the candidate at once.  The outcome is valid when
    at least one failing port is fixed.  With a run supervisor as
    ``run``, each query is one supervised solve and the deadline is
    checked between ports; otherwise each query is one unbudgeted solve.
    """
    if not rewire_legal(PatchScreen(impl), ops):
        return ValidationOutcome(valid=False)

    work = impl.copy()
    apply_rewires(work, spec, ops, {})

    changed_nets = set()
    for op in ops:
        if op.pin.is_output_port:
            changed_nets.add(work.outputs[op.pin.owner])
        else:
            changed_nets.add(op.pin.owner)
    affected = set(dependent_outputs(work, changed_nets))
    for op in ops:
        if op.pin.is_output_port:
            affected.add(op.pin.owner)

    checker = PairwiseChecker(work, spec)
    failing_set = set(failing)
    fixed: List[str] = []
    for port in sorted(affected):
        if run is not None:
            run.checkpoint()
            result = run.check_pair_supervised(checker, port)
        else:
            result = checker.check_pair(port)
        if result.equivalent is True:
            if port in failing_set:
                fixed.append(port)
            continue
        if port not in failing_set:
            return ValidationOutcome(valid=False)
    if not fixed:
        return ValidationOutcome(valid=False)
    return ValidationOutcome(valid=True, fixed=tuple(fixed))
