"""Levelized static timing analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.netlist.circuit import Circuit
from repro.netlist.traverse import topological_order
from repro.timing.delay_model import DelayModel, DEFAULT_DELAY_MODEL


@dataclass
class TimingReport:
    """Result of one STA run."""

    arrival: Dict[str, float]
    #: per output port: arrival time at the port
    output_arrival: Dict[str, float]
    period: float
    #: per output port: period - arrival
    output_slack: Dict[str, float]

    @property
    def worst_slack(self) -> float:
        return min(self.output_slack.values())

    @property
    def worst_output(self) -> str:
        return min(self.output_slack, key=self.output_slack.get)

    @property
    def max_arrival(self) -> float:
        return max(self.output_arrival.values())


def arrival_times(circuit: Circuit,
                  model: DelayModel = DEFAULT_DELAY_MODEL,
                  eco_gates: Optional[Iterable[str]] = None,
                  eco_penalty_ps: float = 0.0) -> Dict[str, float]:
    """Arrival time of every net under the delay model.

    ``eco_gates`` marks gates inserted by an ECO patch; each is charged
    ``eco_penalty_ps`` extra delay.  This models the post-placement
    reality behind the paper's Table 3: patch cells are dropped into
    leftover space after the design is placed and routed, paying detour
    wiring that freshly synthesized logic does not.
    """
    sink_counts: Dict[str, int] = {n: 0 for n in circuit.nets()}
    for g in circuit.gates.values():
        for f in g.fanins:
            sink_counts[f] += 1
    for net in circuit.outputs.values():
        sink_counts[net] += 1

    penalized = set(eco_gates) if eco_gates else set()
    arrival: Dict[str, float] = {n: 0.0 for n in circuit.inputs}
    for name in topological_order(circuit):
        gate = circuit.gates[name]
        start = max((arrival[f] for f in gate.fanins), default=0.0)
        delay = model.gate_delay(
            gate.gtype, len(gate.fanins), sink_counts[name])
        if name in penalized:
            delay += eco_penalty_ps
        arrival[name] = start + delay
    return arrival


def analyze(circuit: Circuit, period: Optional[float] = None,
            model: DelayModel = DEFAULT_DELAY_MODEL,
            eco_gates: Optional[Iterable[str]] = None,
            eco_penalty_ps: float = 0.0) -> TimingReport:
    """Full STA: arrivals and slacks against a clock period.

    When ``period`` is omitted it is set to the worst arrival, so the
    unmodified design closes timing with exactly zero worst slack —
    matching how the Table 3 designs were in a timing-closure loop.
    ``eco_gates`` / ``eco_penalty_ps`` charge patch cells for their
    post-placement detour wiring (see :func:`arrival_times`).
    """
    arrival = arrival_times(circuit, model, eco_gates=eco_gates,
                            eco_penalty_ps=eco_penalty_ps)
    out_arr = {p: arrival[n] for p, n in circuit.outputs.items()}
    if period is None:
        period = max(out_arr.values()) if out_arr else 0.0
    slack = {p: period - a for p, a in out_arr.items()}
    return TimingReport(arrival=arrival, output_arrival=out_arr,
                        period=period, output_slack=slack)


def critical_path(circuit: Circuit,
                  model: DelayModel = DEFAULT_DELAY_MODEL) -> List[str]:
    """Nets on one maximum-arrival path, input to output."""
    arrival = arrival_times(circuit, model)
    out_arr = {p: arrival[n] for p, n in circuit.outputs.items()}
    if not out_arr:
        return []
    end = circuit.outputs[max(out_arr, key=out_arr.get)]
    path = [end]
    current = end
    while current in circuit.gates:
        gate = circuit.gates[current]
        if not gate.fanins:
            break
        current = max(gate.fanins, key=lambda f: arrival[f])
        path.append(current)
    path.reverse()
    return path
