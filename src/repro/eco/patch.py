"""Patch data model: rewire operations and Table-2 style attributes.

A patch is the complete record of an ECO: the rewire operations
``p_1/s_1, ..., p_m/s_m`` committed by the engine, plus the gates cloned
from the specification ``C'`` into the implementation when a rewiring
net ``s_i`` lives in ``C'`` (Proposition 1: 'its logic copy is
instantiated in C').

Patch attributes follow the paper's Table 2 columns:

* **outputs** — sink pins the patch drives (the rectification points);
* **gates** — logic gates instantiated by the patch (constants
  excluded, as a constant is a net tie, not a cell);
* **inputs** — distinct pre-existing implementation nets the patch
  reads (as rewiring sources or as fanins of cloned logic);
* **nets** — distinct nets belonging to the patch: cloned nets,
  constant ties and pre-existing nets used directly as sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.circuit import Circuit, Pin
from repro.runtime.counters import RunCounters


@dataclass(frozen=True)
class RewireOp:
    """One elementary rewiring ``pin/source``.

    ``source_net`` names a net in the implementation when ``from_spec``
    is False, or in the specification when True (its cone gets cloned
    when the op is applied).
    """

    pin: Pin
    source_net: str
    from_spec: bool = False

    def describe(self) -> str:
        where = "C'" if self.from_spec else "C"
        if self.pin.is_output_port:
            target = f"output {self.pin.owner}"
        else:
            target = f"{self.pin.owner}[{self.pin.index}]"
        return f"{target} / {self.source_net} ({where})"


@dataclass(frozen=True)
class PatchStats:
    """Patch attribute counts as reported in Table 2."""

    inputs: int
    outputs: int
    gates: int
    nets: int

    def row(self) -> str:
        return (f"{self.inputs:>6} {self.outputs:>7} {self.gates:>6} "
                f"{self.nets:>6}")


class Patch:
    """Accumulates committed rewires and cloned specification logic."""

    def __init__(self):
        self.ops: List[RewireOp] = []
        #: spec net -> name of its clone in the patched implementation
        self.clone_map: Dict[str, str] = {}
        #: names of gates the patch added to the implementation
        self.cloned_gates: Set[str] = set()

    def record(self, ops: List[RewireOp], clone_map: Dict[str, str],
               new_gates: Set[str]) -> None:
        self.ops.extend(ops)
        self.clone_map.update(clone_map)
        self.cloned_gates.update(new_gates)

    @property
    def rewired_pins(self) -> List[Pin]:
        return [op.pin for op in self.ops]

    def stats(self, patched: Circuit) -> PatchStats:
        """Patch attributes measured on the patched implementation.

        Cloned gates removed by later sweeping are not counted; the
        stats reflect the logic that actually ships.
        """
        alive_clones = {g for g in self.cloned_gates if g in patched.gates}
        const_clones = {
            g for g in alive_clones
            if patched.gates[g].gtype.is_constant
        }
        logic_clones = alive_clones - const_clones

        boundary_inputs: Set[str] = set()
        for g in logic_clones:
            for f in patched.gates[g].fanins:
                if f not in alive_clones:
                    boundary_inputs.add(f)
        direct_sources: Set[str] = set()
        for op in self.ops:
            current = patched.pin_driver(op.pin) if _pin_exists(
                patched, op.pin) else op.source_net
            if current not in alive_clones:
                direct_sources.add(current)
        # constants are ties, not readable inputs
        def is_const(net: str) -> bool:
            g = patched.gates.get(net)
            return g is not None and g.gtype.is_constant

        inputs = {n for n in boundary_inputs | direct_sources
                  if not is_const(n)}
        nets = alive_clones | direct_sources | boundary_inputs
        distinct_pins = set(self.rewired_pins)
        return PatchStats(
            inputs=len(inputs),
            outputs=len(distinct_pins),
            gates=len(logic_clones),
            nets=len(nets),
        )

    def __len__(self) -> int:
        return len(self.ops)

    def describe(self) -> str:
        return "\n".join(op.describe() for op in self.ops)

    def extract_circuit(self, patched: Circuit,
                        name: str = "patch"
                        ) -> Tuple[Circuit, Dict[str, Pin]]:
        """The patch as a standalone netlist — what an ECO actually
        ships: the cloned logic over its boundary inputs, with one
        output per rectification point.

        Returns ``(circuit, port_map)`` where ``port_map`` maps each
        patch output port to the sink pin of the implementation it
        drives.  Boundary nets of the implementation become primary
        inputs of the patch (same names); rewires whose source is a
        pre-existing net appear as a patch input wired straight to an
        output port.
        """
        alive = {g for g in self.cloned_gates if g in patched.gates}
        boundary: Set[str] = set()
        for g in alive:
            for f in patched.gates[g].fanins:
                if f not in alive:
                    boundary.add(f)
        drivers: Dict[Pin, str] = {}
        for op in self.ops:
            if _pin_exists(patched, op.pin):
                drivers[op.pin] = patched.pin_driver(op.pin)
        for net in drivers.values():
            if net not in alive:
                boundary.add(net)

        from repro.netlist.traverse import topological_order
        patch_circuit = Circuit(name)
        for net in sorted(boundary):
            patch_circuit.add_input(net)
        order = [g for g in topological_order(patched) if g in alive]
        for g in order:
            gate = patched.gates[g]
            patch_circuit.add_gate(g, gate.gtype, gate.fanins)

        port_map: Dict[str, Pin] = {}
        for i, (pin, net) in enumerate(sorted(drivers.items())):
            port = f"rp{i}"
            patch_circuit.set_output(port, net)
            port_map[port] = pin
        return patch_circuit, port_map


def _pin_exists(circuit: Circuit, pin: Pin) -> bool:
    if pin.is_output_port:
        return pin.owner in circuit.outputs
    gate = circuit.gates.get(pin.owner)
    return gate is not None and pin.index < len(gate.fanins)


@dataclass
class RectificationResult:
    """Outcome of :meth:`repro.eco.engine.SysEco.rectify`.

    Attributes:
        patched: the rectified implementation.
        patch: the committed rewires and cloned logic.
        verified_outputs: ports proven equivalent to the spec.
        runtime_seconds: wall-clock time of the rectification.
        per_output: for each initially failing port, how it was fixed:
            'rewire' (its own search found the patch), 'fixed-by-earlier'
            (another output's commit fixed it too), 'fallback', or
            'fallback-degraded' when a budget ran out first.
        counters: typed per-run telemetry (search effort + supervision);
            supports mapping-style access for the ablation benches.
        degraded: True when a run-level budget (the deadline or the
            aggregate SAT conflicts) was exhausted, or a ``--jobs``
            partition was quarantined, and outputs were force-completed
            via the guaranteed fallback.
            The patched circuit is still proven equivalent — degradation
            affects patch quality, never correctness.
        degrade_reason: human-readable cause of the degradation.
        trace: the run's :class:`~repro.obs.trace.Trace` when tracing
            was requested (``None`` otherwise); exportable via
            :mod:`repro.obs.export` and summarizable via
            :meth:`trace_summary`.
    """

    patched: Circuit
    patch: Patch
    verified_outputs: Tuple[str, ...]
    runtime_seconds: float
    per_output: Dict[str, str] = field(default_factory=dict)
    counters: RunCounters = field(default_factory=RunCounters)
    degraded: bool = False
    degrade_reason: Optional[str] = None
    trace: Optional[object] = None

    def stats(self) -> PatchStats:
        return self.patch.stats(self.patched)

    def trace_summary(self):
        """The run's :class:`~repro.obs.summary.TraceSummary`, or
        ``None`` when the run was not traced."""
        if self.trace is None:
            return None
        from repro.obs.summary import summarize
        return summarize(self.trace.records())
