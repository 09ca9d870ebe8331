"""Patch analyzer: static legality of rewire operations (``PA...``).

Given a set of rewire operations against an implementation, the
analyzer proves — without touching a solver — that the patch

* keeps the netlist acyclic (``PA001``, reported with the cycle path);
* addresses pins that exist, with legal indices (``PA002``, the
  Section 4.2 pin encoding);
* only reads nets whose structural support stays inside the revised
  output's input support (``PA003``, the Section 4.3 containment,
  against the set of legal sources the screen is given);
* names rewiring sources that exist (``PA004``);
* is not a no-op rewire of a pin to its current driver (``PA005``).

The cycle check is *incremental*: a :class:`PatchScreen` builds the
sink adjacency of the circuit once, then answers per-candidate queries
by walking only the fanout cones the candidate actually touches —
never re-deriving the adjacency or re-topo-sorting the whole netlist
per candidate.  :meth:`PatchScreen.cycle_path` is the one cycle check
of the flow.  The engine keeps one screen per search context and
consults it before any SAT spend (the ``lint.screen`` trace spans);
candidate validation re-checks legality on its own screen through
:meth:`~PatchScreen.cycle_path` and :meth:`~PatchScreen.fanout_cone`
(:func:`repro.eco.validate.rewire_legal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import NetlistError
from repro.lint.diag import Diagnostic, LintReport, error, warning
from repro.netlist.circuit import Circuit, Pin


@dataclass(frozen=True)
class ScreenOp:
    """Engine-independent view of one rewire: ``pin/source``.

    Duck-compatible with :class:`repro.eco.patch.RewireOp` (the
    analyzer reads only ``pin``, ``source_net`` and ``from_spec``, so
    either type can be passed).
    """

    pin: Pin
    source_net: str
    from_spec: bool = False


def parse_ops(data: Sequence[Mapping[str, Any]]) -> List[ScreenOp]:
    """Decode rewire ops from their JSON form.

    Each entry is ``{"pin": "gate:NAME:INDEX" | "output:PORT",
    "source": NET, "from_spec": BOOL}`` — the format ``repro lint``
    accepts via ``--patch-ops``.
    """
    ops: List[ScreenOp] = []
    for entry in data:
        spec = str(entry["pin"])
        parts = spec.split(":")
        if parts[0] == "gate" and len(parts) == 3:
            pin = Pin.gate(parts[1], int(parts[2]))
        elif parts[0] == "output" and len(parts) == 2:
            pin = Pin.output(parts[1])
        else:
            raise NetlistError(
                f"bad pin spec {spec!r}: use 'gate:NAME:INDEX' or "
                "'output:PORT'")
        ops.append(ScreenOp(pin=pin, source_net=str(entry["source"]),
                            from_spec=bool(entry.get("from_spec", False))))
    return ops


class PatchScreen:
    """Pre-SAT structural screen for rewire candidates on one circuit.

    Args:
        circuit: the implementation the ops would be applied to.  The
            screen assumes the circuit does not mutate during its
            lifetime (the engine builds one screen per search context).
        spec: the revised specification; enables existence checks for
            spec-sourced ops.
        legal_sources: the nets of ``circuit`` whose structural input
            support lies within the revised output's (see
            :func:`repro.netlist.traverse.nets_within_support`), the
            legal sources of Section 4.3; enables the ``PA003``
            containment rule.
    """

    def __init__(self, circuit: Circuit, spec: Optional[Circuit] = None,
                 legal_sources: Optional[AbstractSet[str]] = None):
        self.circuit = circuit
        self.spec = spec
        self.legal_sources = legal_sources
        # sink adjacency, built once: net -> [(gate, pin index), ...]
        self._sinks: Dict[str, List[Tuple[str, int]]] = {}
        for g in circuit.gates.values():
            for i, f in enumerate(g.fanins):
                self._sinks.setdefault(f, []).append((g.name, i))
        self._cones: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # incremental reachability
    # ------------------------------------------------------------------
    def fanout_cone(self, net: str) -> Set[str]:
        """Inclusive transitive fanout of ``net``, memoized.

        Replaces per-pin :func:`repro.netlist.traverse.transitive_fanout`
        calls (each of which rebuilds the adjacency in O(edges)) with
        one shared adjacency and one walk per distinct net.
        """
        cached = self._cones.get(net)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [net]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            for gate, _ in self._sinks.get(n, ()):
                if gate not in seen:
                    stack.append(gate)
        self._cones[net] = seen
        return seen

    def cycle_path(self, ops: Sequence[ScreenOp]) -> Optional[List[str]]:
        """Cycle the ops would close, as a net path, or ``None``.

        Exact joint check: walks the sink adjacency with the rewired
        pins' old edges masked and all proposed new edges added at
        once, so cycles through several new edges are found and edges
        the rewires remove cannot produce false rejections.  Only the
        fanout cones of the rewired gates are visited.
        """
        rewired: Set[Tuple[str, int]] = {
            (op.pin.owner, op.pin.index) for op in ops
            if not op.pin.is_output_port
        }
        new_edges: Dict[str, List[str]] = {}
        for op in ops:
            if op.from_spec or op.pin.is_output_port:
                continue  # spec clones are fresh logic: cannot cycle
            new_edges.setdefault(op.source_net, []).append(op.pin.owner)
        if not new_edges:
            return None

        def successors(net: str) -> List[str]:
            out = [gate for gate, idx in self._sinks.get(net, ())
                   if (gate, idx) not in rewired]
            out.extend(new_edges.get(net, ()))
            return out

        # DFS from each new edge's target looking back to its source
        for src, targets in new_edges.items():
            for target in targets:
                parent: Dict[str, Optional[str]] = {target: None}
                stack = [target]
                while stack:
                    n = stack.pop()
                    if n == src:
                        path = [n]
                        cur: Optional[str] = parent[n]
                        while cur is not None:
                            path.append(cur)
                            cur = parent[cur]
                        path.reverse()  # target -> ... -> src
                        # prepend src: the new edge src -> target
                        # closes the loop
                        return [src] + path
                    for nxt in successors(n):
                        if nxt not in parent:
                            parent[nxt] = n
                            stack.append(nxt)
        return None

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def _check_pin(self, op: ScreenOp) -> Optional[Diagnostic]:
        pin = op.pin
        if pin.is_output_port:
            if pin.owner not in self.circuit.outputs:
                return error(
                    "PA002", f"no output port {pin.owner!r}",
                    where=repr(pin))
            return None
        gate = self.circuit.gates.get(pin.owner)
        if gate is None:
            return error("PA002", f"no gate {pin.owner!r}",
                         where=repr(pin))
        if not 0 <= pin.index < len(gate.fanins):
            return error(
                "PA002",
                f"gate {pin.owner!r} has no input pin {pin.index} "
                f"(arity {len(gate.fanins)})",
                where=repr(pin),
                hint="pin indices encode (gate, fanin position) per "
                     "Sec. 4.2")
        return None

    def _check_source(self, op: ScreenOp) -> Optional[Diagnostic]:
        if op.from_spec:
            if self.spec is not None \
                    and not self.spec.has_net(op.source_net):
                return error(
                    "PA004",
                    f"rewiring source {op.source_net!r} does not exist "
                    "in the specification",
                    where=repr(op.pin))
            return None
        if not self.circuit.has_net(op.source_net):
            return error(
                "PA004",
                f"rewiring source {op.source_net!r} does not exist in "
                "the implementation",
                where=repr(op.pin))
        return None

    def _check_support(self, op: ScreenOp) -> Optional[Diagnostic]:
        if op.from_spec or self.legal_sources is None \
                or op.source_net in self.legal_sources:
            return None
        return error(
            "PA003",
            f"support of rewiring source {op.source_net!r} escapes "
            "the revised output's input support",
            where=repr(op.pin),
            hint="Sec. 4.3: a candidate net must read only inputs "
                 "the revised function reads")

    def check_ops(self, ops: Sequence[ScreenOp]) -> LintReport:
        """All patch rules on one candidate op set."""
        report = LintReport(tool="patch", subject=self.circuit.name)
        sound = True
        for op in ops:
            pin_diag = self._check_pin(op)
            if pin_diag is not None:
                report.add(pin_diag)
                sound = False
                continue
            src_diag = self._check_source(op)
            if src_diag is not None:
                report.add(src_diag)
                sound = False
                continue
            sup_diag = self._check_support(op)
            if sup_diag is not None:
                report.add(sup_diag)
            if not op.from_spec \
                    and self.circuit.pin_driver(op.pin) == op.source_net:
                report.add(warning(
                    "PA005",
                    f"rewire of {op.pin!r} to {op.source_net!r} is a "
                    "no-op (already the driver)",
                    where=repr(op.pin)))
        if sound:
            cycle = self.cycle_path(ops)
            if cycle is not None:
                report.add(error(
                    "PA001",
                    "rewire would close a combinational cycle: "
                    + " -> ".join(cycle),
                    where=repr(ops[0].pin),
                    hint="the source net lies in the rectification "
                         "point's fanout cone"))
        return report


def lint_patch_ops(circuit: Circuit, ops: Sequence[ScreenOp],
                   spec: Optional[Circuit] = None,
                   legal_sources: Optional[AbstractSet[str]] = None
                   ) -> LintReport:
    """One-shot patch analysis (CLI and ad-hoc use)."""
    screen = PatchScreen(circuit, spec=spec, legal_sources=legal_sources)
    return screen.check_ops(ops)
