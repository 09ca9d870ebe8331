"""Ground-truth specification revisions.

A :class:`Revision` edits a specification circuit and records exactly
what changed — the number of added/modified gates is the paper's
"designer's estimate" column: the size an ideal patch would have,
known here by construction.  Revisions never touch the implementation;
the ECO engines must discover the change functionally.

Every edit goes through a :class:`~repro.netlist.circuit.Circuit`
mutator, so a circuit simulated before its revision drops its derived
data (topological order, compiled plan) with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.gate import GateType
from repro.netlist.traverse import dependent_outputs, transitive_fanout


@dataclass
class Revision:
    """Record of one applied specification edit."""

    kind: str
    description: str
    #: ideal patch size in gates (the designer's-estimate column)
    estimate_gates: int
    #: output ports whose function the edit changes (superset: ports
    #: structurally downstream of the edit)
    affected_outputs: Tuple[str, ...] = ()


def _pick_gate(circuit: Circuit, rng: random.Random,
               want: Optional[Callable[[str], bool]] = None,
               bias: str = "any") -> str:
    """Choose an edit site.

    ``bias='deep'`` prefers gates with the most downstream logic (the
    regime where structural ECO approaches must clone large regions);
    ``'shallow'`` prefers gates close to the outputs; ``'any'`` is
    uniform.
    """
    names = [g for g in circuit.gates
             if not circuit.gates[g].gtype.is_constant]
    if want is not None:
        filtered = [g for g in names if want(g)]
        if filtered:
            names = filtered
    if not names:
        raise ReproError("no editable gate in circuit")
    names.sort()
    if bias == "any" or len(names) == 1:
        return rng.choice(names)
    sample = rng.sample(names, min(12, len(names)))
    sizes = {g: len(transitive_fanout(circuit, [g])) for g in sample}
    if bias == "deep":
        return max(sample, key=lambda g: (sizes[g], g))
    if bias == "shallow":
        return min(sample, key=lambda g: (sizes[g], g))
    raise ReproError(f"unknown bias {bias!r}")


def _affected(circuit: Circuit, nets: Sequence[str]) -> Tuple[str, ...]:
    return tuple(sorted(dependent_outputs(circuit, nets)))


def gate_type_change(spec: Circuit, rng: random.Random,
                     bias: str = "any") -> Revision:
    """Swap a gate's operation (the classic single-gate bug fix)."""
    swaps = {
        GateType.AND: GateType.OR, GateType.OR: GateType.AND,
        GateType.NAND: GateType.NOR, GateType.NOR: GateType.NAND,
        GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
    }
    name = _pick_gate(spec, rng, bias=bias,
                      want=lambda g: spec.gates[g].gtype in swaps)
    gate = spec.gates[name]
    if gate.gtype not in swaps:
        raise ReproError("no swappable gate found")
    new_type = swaps[gate.gtype]
    spec.replace_gate(name, new_type, gate.fanins)
    return Revision(
        kind="gate-type",
        description=f"{name}: {gate.gtype.value} -> {new_type.value}",
        estimate_gates=1,
        affected_outputs=_affected(spec, [name]),
    )


def wrong_input(spec: Circuit, rng: random.Random,
                bias: str = "any") -> Revision:
    """Reconnect one gate input pin to a different (acyclic) net."""
    for _ in range(16):
        name = _pick_gate(spec, rng, bias=bias,
                          want=lambda g: bool(spec.gates[g].fanins))
        gate = spec.gates[name]
        if not gate.fanins:
            continue
        downstream = transitive_fanout(spec, [name])
        options = [n for n in spec.nets()
                   if n not in downstream and n not in gate.fanins]
        if not options:
            continue
        idx = rng.randrange(len(gate.fanins))
        new_net = rng.choice(sorted(options))
        old = spec.rewire_pin(Pin.gate(name, idx), new_net)
        return Revision(
            kind="wrong-input",
            description=f"{name}[{idx}]: {old} -> {new_net}",
            estimate_gates=1,
            affected_outputs=_affected(spec, [name]),
        )
    raise ReproError("no rewirable pin found")


def add_condition(spec: Circuit, rng: random.Random,
                  condition_inputs: int = 2,
                  bias: str = "any") -> Revision:
    """Qualify a signal with a new condition (Figure 1's revision).

    Builds ``cond = AND(inputs...)`` and replaces every sink of a chosen
    net with ``net & cond`` (or ``net | ~cond``), redefining a multi-sink
    signal the way the revised specification of Figure 1 redefines
    ``v(0)``/``v(1)``.
    """
    target = _pick_gate(spec, rng, bias=bias)
    picks = sorted(rng.sample(sorted(spec.inputs),
                              min(condition_inputs, len(spec.inputs))))
    cond = spec.and_(*picks, name=f"rev_cond_{target}") if len(picks) > 1 \
        else picks[0]
    gated = spec.and_(target, cond, name=f"rev_gate_{target}")
    sinks = [p for p in spec.sinks(target)
             if not (p.kind == "gate" and p.owner in (cond, gated))]
    for pin in sinks:
        spec.rewire_pin(pin, gated)
    estimate = 2 if len(picks) > 1 else 1
    return Revision(
        kind="add-condition",
        description=f"{target} := {target} & AND({', '.join(picks)})",
        estimate_gates=estimate,
        affected_outputs=_affected(spec, [gated]),
    )


def polarity_flip(spec: Circuit, rng: random.Random,
                  bias: str = "any") -> Revision:
    """Invert one gate input pin (missing/extra bubble)."""
    name = _pick_gate(spec, rng, bias=bias,
                      want=lambda g: bool(spec.gates[g].fanins))
    gate = spec.gates[name]
    if not gate.fanins:
        raise ReproError("no invertible pin found")
    idx = rng.randrange(len(gate.fanins))
    old = gate.fanins[idx]
    inv = spec.not_(old, name=f"rev_inv_{name}_{idx}")
    spec.rewire_pin(Pin.gate(name, idx), inv)
    return Revision(
        kind="polarity",
        description=f"{name}[{idx}]: {old} -> ~{old}",
        estimate_gates=1,
        affected_outputs=_affected(spec, [name]),
    )


def word_redefine(spec: Circuit, rng: random.Random,
                  out_prefix: str = "", max_bits: int = 8) -> Revision:
    """Redefine a group of related outputs (multi-output revision).

    Picks up to ``max_bits`` output ports (sharing a name prefix when
    one is given) and XORs each with a freshly built condition — an
    evolved-functionality change touching a word's worth of outputs.
    """
    ports = sorted(p for p in spec.outputs if p.startswith(out_prefix))
    if not ports:
        ports = sorted(spec.outputs)
    chosen = ports[:max_bits] if len(ports) <= max_bits else \
        sorted(rng.sample(ports, max_bits))
    picks = sorted(rng.sample(sorted(spec.inputs),
                              min(2, len(spec.inputs))))
    cond = spec.and_(*picks, name="rev_word_cond") if len(picks) > 1 \
        else picks[0]
    for port in chosen:
        old_net = spec.outputs[port]
        new_net = spec.xor(old_net, cond, name=f"rev_word_{port}")
        spec.set_output(port, new_net)
    return Revision(
        kind="word-redefine",
        description=f"outputs {', '.join(chosen)} ^= AND({', '.join(picks)})",
        estimate_gates=len(chosen) + (1 if len(picks) > 1 else 0),
        affected_outputs=tuple(chosen),
    )


def drop_term(spec: Circuit, rng: random.Random,
              bias: str = "any") -> Revision:
    """Remove one operand from a wide OR/AND gate (a missing term).

    The classic spec-bug shape in two-level control logic: a condition
    that should not (or should) have been part of a sum of products.
    """
    wide = lambda g: (len(spec.gates[g].fanins) >= 3 and
                      spec.gates[g].gtype in (GateType.OR, GateType.AND,
                                              GateType.NOR,
                                              GateType.NAND))
    name = _pick_gate(spec, rng, want=wide, bias=bias)
    gate = spec.gates[name]
    if len(gate.fanins) < 3:
        raise ReproError("no wide gate to drop a term from")
    idx = rng.randrange(len(gate.fanins))
    fanins = list(gate.fanins)
    removed = fanins.pop(idx)
    spec.replace_gate(name, gate.gtype, fanins)
    return Revision(
        kind="drop-term",
        description=f"{name}: removed operand {removed}",
        estimate_gates=1,
        affected_outputs=_affected(spec, [name]),
    )


def extra_term(spec: Circuit, rng: random.Random,
               bias: str = "any") -> Revision:
    """Add a fresh product term to an OR gate (a forgotten condition)."""
    want = lambda g: spec.gates[g].gtype in (GateType.OR, GateType.NOR)
    name = _pick_gate(spec, rng, want=want, bias=bias)
    gate = spec.gates[name]
    if gate.gtype not in (GateType.OR, GateType.NOR):
        raise ReproError("no OR-family gate to extend")
    picks = sorted(rng.sample(sorted(spec.inputs),
                              min(2, len(spec.inputs))))
    term = spec.and_(*picks, name=f"rev_term_{name}") \
        if len(picks) > 1 else picks[0]
    spec.replace_gate(name, gate.gtype, gate.fanins + [term])
    return Revision(
        kind="extra-term",
        description=f"{name}: added term AND({', '.join(picks)})",
        estimate_gates=2 if len(picks) > 1 else 1,
        affected_outputs=_affected(spec, [name]),
    )


_KINDS = {
    "gate-type": gate_type_change,
    "wrong-input": wrong_input,
    "add-condition": add_condition,
    "polarity": polarity_flip,
    "word-redefine": word_redefine,
    "drop-term": drop_term,
    "extra-term": extra_term,
}


def apply_revision(spec: Circuit, kind: str, seed: int = 0,
                   **kwargs) -> Revision:
    """Apply one named revision in place; returns its record."""
    try:
        fn = _KINDS[kind]
    except KeyError:
        raise ReproError(
            f"unknown revision kind {kind!r}; have {sorted(_KINDS)}")
    return fn(spec, random.Random(seed), **kwargs)


def compose_revisions(spec: Circuit, kinds: Sequence,
                      seed: int = 0) -> Revision:
    """Apply several revisions (a multi-error ECO); merged record.

    ``kinds`` entries are either a kind name or ``(kind, kwargs)``.
    """
    rng = random.Random(seed)
    parts: List[Revision] = []
    for kind in kinds:
        if isinstance(kind, str):
            name, kwargs = kind, {}
        else:
            name, kwargs = kind
        parts.append(_KINDS[name](spec, random.Random(rng.getrandbits(32)),
                                  **kwargs))
    return Revision(
        kind="+".join(r.kind for r in parts),
        description="; ".join(r.description for r in parts),
        estimate_gates=sum(r.estimate_gates for r in parts),
        affected_outputs=tuple(sorted(
            {p for r in parts for p in r.affected_outputs})),
    )
