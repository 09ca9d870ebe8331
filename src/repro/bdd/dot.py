"""Graphviz (dot) export of BDDs.

Visualization helper for debugging the sampled characteristic
functions: solid edges are then-branches, dashed edges else-branches;
nodes are labelled by variable (names optional).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.bdd.manager import BddManager, FALSE, TRUE


def to_dot(manager: BddManager, roots: Mapping[str, int],
           var_names: Optional[Mapping[int, str]] = None,
           graph_name: str = "bdd") -> str:
    """Render the shared DAG of several named roots as dot text.

    Args:
        manager: the owning manager.
        roots: label -> node; each label becomes a box pointing at its
            root node.
        var_names: optional variable index -> display name.
        graph_name: dot graph identifier.
    """
    names = dict(var_names) if var_names else {}
    lines = [f"digraph {graph_name} {{",
             "  rankdir=TB;",
             "  node [shape=circle];",
             '  nF [label="0", shape=box];',
             '  nT [label="1", shape=box];']

    seen = set()
    order: list = []
    stack = [node for node in roots.values()]
    while stack:
        n = stack.pop()
        if n <= TRUE or n in seen:
            continue
        seen.add(n)
        order.append(n)
        stack.append(manager.low(n))
        stack.append(manager.high(n))

    def node_id(n: int) -> str:
        if n == FALSE:
            return "nF"
        if n == TRUE:
            return "nT"
        return f"n{n}"

    for n in sorted(order):
        var = manager.top_var(n)
        label = names.get(var, f"v{var}")
        lines.append(f'  n{n} [label="{label}"];')
        lines.append(f"  n{n} -> {node_id(manager.high(n))};")
        lines.append(
            f"  n{n} -> {node_id(manager.low(n))} [style=dashed];")

    for label, node in roots.items():
        lines.append(f'  r_{_sanitize(label)} [label="{label}", '
                     "shape=box, style=filled];")
        lines.append(f"  r_{_sanitize(label)} -> {node_id(node)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sanitize(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def write_dot(manager: BddManager, roots: Mapping[str, int], path: str,
              var_names: Optional[Mapping[int, str]] = None) -> None:
    """Write the dot rendering to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(manager, roots, var_names=var_names))
