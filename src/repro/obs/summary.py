"""Human-readable summaries of a trace: the phase tree and hot outputs.

Consumes the canonical record list (``Trace.records()`` or
:func:`repro.obs.export.read_trace`) and aggregates spans by their
*name path* — the chain of span names from the root — so repeated
phases (one ``eco.output`` per failing output, one ``sat.validate``
per supervised query, ...) collapse into one row with call counts,
total wall time, and the SAT-conflict / BDD-node deltas attributed to
that phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


@dataclass
class PhaseNode:
    """Aggregated statistics of one phase (a span name path)."""

    name: str
    depth: int
    calls: int = 0
    seconds: float = 0.0
    sat_conflicts: int = 0
    bdd_nodes: int = 0
    children: "List[PhaseNode]" = field(default_factory=list)


@dataclass
class HotOutput:
    """One per-output rectification, for the hottest-outputs table."""

    output: str
    seconds: float
    how: str
    sat_conflicts: int
    bdd_nodes: int


@dataclass
class TraceSummary:
    """Everything the ``repro trace`` renderer needs."""

    name: str
    wall_seconds: float
    roots: List[PhaseNode]
    hot_outputs: List[HotOutput]
    events: List[Dict[str, Any]]
    counters: Dict[str, int]
    degraded: bool
    #: fraction of root wall time covered by its direct child phases
    coverage: float
    #: ``(name, tags)`` of each tagged phase the root ran exactly once
    #: (diagnosis, refinement, final verification, ...), in start order
    run_phases: List[Tuple[str, Dict[str, Any]]] = field(
        default_factory=list)

    def top_phases(self, limit: int = 6) -> List[PhaseNode]:
        """Flattened phases ordered by total time, deepest-first rows
        excluded in favor of their parents when times tie exactly."""
        flat: List[PhaseNode] = []

        def walk(node: PhaseNode) -> None:
            flat.append(node)
            for c in node.children:
                walk(c)

        for r in self.roots:
            walk(r)
        flat.sort(key=lambda n: -n.seconds)
        return flat[:limit]


def summarize(records: Sequence[Dict[str, Any]]) -> TraceSummary:
    """Aggregate a record list into a :class:`TraceSummary`."""
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    for rec in records:
        kind = rec.get("type")
        if kind == "meta":
            meta = rec
        elif kind == "span":
            spans.append(rec)
        elif kind == "event":
            events.append(rec)

    by_id = {s["id"]: s for s in spans}

    def name_path(span: Dict[str, Any]) -> Tuple[str, ...]:
        path = [span["name"]]
        parent = span.get("parent")
        seen = set()
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            node = by_id[parent]
            path.append(node["name"])
            parent = node.get("parent")
        return tuple(reversed(path))

    nodes: Dict[Tuple[str, ...], PhaseNode] = {}
    for span in spans:
        path = name_path(span)
        node = nodes.get(path)
        if node is None:
            node = PhaseNode(name=path[-1], depth=len(path) - 1)
            nodes[path] = node
        node.calls += 1
        node.seconds += span.get("dur", 0.0)
        counters = span.get("counters") or {}
        node.sat_conflicts += counters.get("sat_conflicts_spent", 0)
        node.bdd_nodes += counters.get("bdd_nodes_spent", 0)

    roots: List[PhaseNode] = []
    for path in sorted(nodes, key=lambda p: (len(p), p)):
        node = nodes[path]
        if len(path) == 1:
            roots.append(node)
        else:
            parent = nodes.get(path[:-1])
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: -n.seconds)
    roots.sort(key=lambda n: -n.seconds)

    wall = max((s["ts"] + s.get("dur", 0.0) for s in spans), default=0.0)

    # hottest outputs: the per-output phase spans, slowest first
    hot = [
        HotOutput(
            output=str(s.get("tags", {}).get("output", "?")),
            seconds=s.get("dur", 0.0),
            how=str(s.get("tags", {}).get("how", "?")),
            sat_conflicts=(s.get("counters") or {}).get(
                "sat_conflicts_spent", 0),
            bdd_nodes=(s.get("counters") or {}).get("bdd_nodes_spent", 0),
        )
        for s in spans if s["name"] == "eco.output"
    ]
    hot.sort(key=lambda h: -h.seconds)

    root_ids = {s["id"] for s in spans if s.get("parent") not in by_id}
    children = [s for s in spans if s.get("parent") in root_ids]
    calls: Dict[str, int] = {}
    for s in children:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    run_phases = [(s["name"], dict(s["tags"]))
                  for s in sorted(children, key=lambda s: s["ts"])
                  if calls[s["name"]] == 1 and s.get("tags")]

    coverage = 1.0
    if roots and roots[0].seconds > 0:
        root = roots[0]
        covered = sum(c.seconds for c in root.children)
        coverage = min(1.0, covered / root.seconds)

    return TraceSummary(
        name=str(meta.get("name", "run")),
        wall_seconds=wall,
        roots=roots,
        hot_outputs=hot,
        events=events,
        counters=dict(meta.get("counters") or {}),
        degraded=bool(meta.get("degraded", False)),
        coverage=coverage,
        run_phases=run_phases,
    )


def format_summary(summary: TraceSummary, hot: int = 5,
                   events: int = 8) -> str:
    """Render the summary tree the ``repro trace`` subcommand prints."""
    lines: List[str] = []
    head = (f"trace summary: {summary.name} "
            f"(wall {summary.wall_seconds:.3f}s"
            f"{', DEGRADED' if summary.degraded else ''})")
    lines.append(head)
    lines.append("=" * len(head))

    total = summary.roots[0].seconds if summary.roots else 0.0
    lines.append(f"{'phase':<42} {'calls':>6} {'time':>9} {'%':>5} "
                 f"{'sat-conf':>9} {'bdd-nodes':>10}")

    def pct(seconds: float) -> str:
        if total <= 0:
            return "-"
        return f"{100.0 * seconds / total:.0f}%"

    def walk(node: PhaseNode, indent: int) -> None:
        label = "  " * indent + node.name
        lines.append(
            f"{label:<42} {node.calls:>6} {node.seconds:>8.3f}s "
            f"{pct(node.seconds):>5} {node.sat_conflicts:>9} "
            f"{node.bdd_nodes:>10}")
        for child in node.children:
            walk(child, indent + 1)

    for root in summary.roots:
        walk(root, 0)

    if summary.roots:
        lines.append(f"phase coverage : {100.0 * summary.coverage:.1f}% "
                     "of root wall time attributed to child phases")

    if summary.run_phases:
        lines.append("run phases:")
        for name, tags in summary.run_phases:
            lines.append(f"  {name:<20} " + " ".join(
                f"{k}={v}" for k, v in sorted(tags.items())))

    if summary.hot_outputs:
        lines.append("hottest outputs:")
        for h in summary.hot_outputs[:hot]:
            lines.append(
                f"  {h.output:<20} {h.seconds:>8.3f}s  {h.how:<18} "
                f"sat-conf={h.sat_conflicts} bdd-nodes={h.bdd_nodes}")

    if summary.events:
        lines.append(f"events ({len(summary.events)}):")
        for e in summary.events[:events]:
            tags = " ".join(f"{k}={v}" for k, v in
                            sorted(e.get("tags", {}).items()))
            lines.append(f"  {e['ts']:>9.3f}s {e['name']} {tags}".rstrip())
        if len(summary.events) > events:
            lines.append(f"  ... {len(summary.events) - events} more")

    if summary.counters:
        interesting = {k: v for k, v in sorted(summary.counters.items())
                       if v}
        if interesting:
            lines.append("run counters   : " + ", ".join(
                f"{k}={v}" for k, v in interesting.items()))
    return "\n".join(lines)


def brief_phase_lines(records: Sequence[Dict[str, Any]],
                      limit: int = 5) -> List[str]:
    """Compact per-phase lines for embedding in the patch report."""
    summary = summarize(records)
    out = []
    for node in summary.top_phases(limit):
        out.append(f"{node.name:<20} calls={node.calls} "
                   f"time={node.seconds:.3f}s "
                   f"sat-conf={node.sat_conflicts} "
                   f"bdd-nodes={node.bdd_nodes}")
    return out
