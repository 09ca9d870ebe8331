"""Diagnostic analyses of an ECO instance.

Utilities a user runs *before* rectification to understand the change:
which outputs fail, how large their error domains are, how structurally
dissimilar the two netlists got, and a digest that suggests engine
settings.  None of this is needed by the engine itself; it is the
front-of-flow tooling an ECO practitioner expects.  The error-domain
sizes of all failing outputs come from one random-simulation signature
per circuit (:func:`error_rates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.gate import SYMMETRIC_TYPES, WORD_BITS
from repro.netlist.simulate import signature
from repro.netlist.traverse import (
    input_support,
    topological_order,
    transitive_fanin,
)
from repro.cec.equivalence import nonequivalent_outputs


@dataclass
class OutputDiagnosis:
    """Per-failing-output characteristics."""

    port: str
    #: estimated fraction of the input space in the error domain
    error_rate: float
    #: structural input support size of the implementation cone
    impl_support: int
    #: structural input support size of the revised cone
    spec_support: int
    #: gates in the implementation cone
    cone_gates: int


@dataclass
class EcoDiagnosis:
    """Whole-instance characteristics."""

    failing_outputs: Tuple[str, ...]
    total_outputs: int
    per_output: Dict[str, OutputDiagnosis] = field(default_factory=dict)
    #: fraction of spec nets with a structural twin in the impl —
    #: low values mean heavy restructuring (DeltaSyn-hostile)
    structural_similarity: float = 0.0

    @property
    def failing_fraction(self) -> float:
        return len(self.failing_outputs) / max(1, self.total_outputs)

    def suggest_config(self):
        """A reasonable :class:`EcoConfig` for this instance."""
        from repro.eco.config import EcoConfig
        rare = any(d.error_rate < 0.02 for d in self.per_output.values())
        return EcoConfig(num_samples=32 if rare else 16)


def error_rates(impl: Circuit, spec: Circuit, ports: Sequence[str],
                rounds: int = 16, seed: int = 7) -> Dict[str, float]:
    """Monte-Carlo estimates of ``|E| / 2^n``, one per output pair.

    Both circuits are simulated once, on the same ``rounds`` x 64
    random patterns, and every port's rate is read off the two
    signatures.
    """
    impl_sigs = signature(impl, rounds, seed=seed)
    spec_sigs = signature(spec, rounds, seed=seed, inputs=impl.inputs)
    total = rounds * WORD_BITS
    return {
        port: bin(impl_sigs[impl.outputs[port]]
                  ^ spec_sigs[spec.outputs[port]]).count("1") / total
        for port in ports}


def structural_similarity(impl: Circuit, spec: Circuit) -> float:
    """Fraction of spec gate cones with a structural twin in the impl.

    Keys every net of both circuits by its gate type and its fanins'
    keys (sorted for symmetric gates), through one intern table shared
    by the two circuits and seeded with the input names; 1.0 means the
    spec's structures all survive in the implementation (easy for
    structural ECO), values near the inputs' baseline mean the netlists
    only agree at the PIs.
    """
    common: Dict[object, int] = {}

    def canon(circuit: Circuit) -> Dict[str, int]:
        out: Dict[str, int] = {}

        def intern(sig: object) -> int:
            if sig not in common:
                common[sig] = len(common)
            return common[sig]

        for name in circuit.inputs:
            out[name] = intern(("input", name))
        for name in topological_order(circuit):
            gate = circuit.gates[name]
            fk = tuple(out[f] for f in gate.fanins)
            if gate.gtype in SYMMETRIC_TYPES:
                fk = tuple(sorted(fk))
            out[name] = intern((gate.gtype, fk))
        return out

    impl_canon = canon(impl)
    spec_canon = canon(spec)
    impl_set = set(impl_canon.values())
    spec_gates = [spec_canon[g] for g in spec.gates]
    if not spec_gates:
        return 1.0
    return sum(1 for k in spec_gates if k in impl_set) / len(spec_gates)


def diagnose(impl: Circuit, spec: Circuit,
             rounds: int = 16) -> EcoDiagnosis:
    """Full pre-rectification diagnosis of an ECO instance."""
    failing = tuple(nonequivalent_outputs(impl, spec))
    diagnosis = EcoDiagnosis(
        failing_outputs=failing,
        total_outputs=len(impl.outputs),
        structural_similarity=structural_similarity(impl, spec),
    )
    rates = error_rates(impl, spec, failing, rounds=rounds)
    for port in failing:
        cone = transitive_fanin(impl, [impl.outputs[port]],
                                include_inputs=False)
        diagnosis.per_output[port] = OutputDiagnosis(
            port=port,
            error_rate=rates[port],
            impl_support=len(input_support(impl, impl.outputs[port])),
            spec_support=len(input_support(spec, spec.outputs[port])),
            cone_gates=len([n for n in cone if n in impl.gates]),
        )
    return diagnosis


def format_diagnosis(diagnosis: EcoDiagnosis) -> str:
    """Human-readable report of a diagnosis."""
    lines = [
        f"failing outputs     : {len(diagnosis.failing_outputs)} of "
        f"{diagnosis.total_outputs} "
        f"({100 * diagnosis.failing_fraction:.1f}%)",
        f"structural similarity (spec cones surviving in impl): "
        f"{100 * diagnosis.structural_similarity:.1f}%",
    ]
    if diagnosis.per_output:
        lines.append(
            f"{'output':>16} {'err rate':>9} {'impl sup':>9} "
            f"{'spec sup':>9} {'cone':>6}")
        for d in diagnosis.per_output.values():
            lines.append(
                f"{d.port:>16} {d.error_rate:>9.4f} {d.impl_support:>9} "
                f"{d.spec_support:>9} {d.cone_gates:>6}")
    return "\n".join(lines)
