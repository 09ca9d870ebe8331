"""SAT sweeping: merge functionally equivalent nets.

Random simulation partitions nets into candidate equivalence classes;
SAT confirms each candidate against its class representative before the
merge.  Sweeping is used twice in this library: as the strongest pass
of the heavy synthesis script (producing the logic sharing that makes
industrial ECOs hard), and as the patch-input refinement step of the
ECO flow ('a sweeping technique that reuses already existing current
implementation logic', Section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.simulate import signature
from repro.netlist.traverse import topological_order, transitive_fanin
from repro.sat import Solver, UNSAT
from repro.sat.tseitin import CircuitEncoder


def equivalence_classes(circuit: Circuit, rounds: int = 4,
                        seed: int = 2019) -> List[List[str]]:
    """Candidate equivalence classes of nets by simulation signature.

    Classes are ordered topologically (representative first) and only
    classes with two or more members are returned.  Signatures are
    necessary-but-not-sufficient evidence; confirm with SAT before
    merging.
    """
    sigs = signature(circuit, rounds=rounds, seed=seed)
    topo_pos: Dict[str, int] = {}
    for i, n in enumerate(circuit.inputs):
        topo_pos[n] = i
    base = len(circuit.inputs)
    for i, n in enumerate(topological_order(circuit)):
        topo_pos[n] = base + i
    groups: Dict[int, List[str]] = {}
    for net, sig in sigs.items():
        groups.setdefault(sig, []).append(net)
    classes = []
    for members in groups.values():
        if len(members) > 1:
            members.sort(key=lambda n: topo_pos[n])
            classes.append(members)
    classes.sort(key=lambda ms: topo_pos[ms[0]])
    return classes


def sweep_equivalent_nets(circuit: Circuit, rounds: int = 4,
                          seed: int = 2019,
                          conflict_budget: Optional[int] = 10000,
                          ) -> Tuple[Circuit, int]:
    """Merge SAT-confirmed equivalent nets; returns (circuit, merges).

    The input circuit is not modified; a swept copy is returned.  Dead
    gates left by the merges are removed.
    """
    work = circuit.copy()
    classes = equivalence_classes(work, rounds=rounds, seed=seed)
    if not classes:
        return work, 0

    solver = Solver()
    encoder = CircuitEncoder(solver)
    varmap = encoder.encode(work)

    merges = 0
    for members in classes:
        rep = members[0]
        for other in members[1:]:
            neq = encoder._encode_xor2(varmap[rep], varmap[other])
            status = solver.solve(assumptions=[neq],
                                  conflict_budget=conflict_budget)
            if status == UNSAT:
                # rep precedes other topologically, so redirecting the
                # sinks of other to rep cannot create a cycle
                work.replace_net(other, rep)
                merges += 1
    if merges:
        prune_dangling(work)
    return work, merges


def prune_dangling(circuit: Circuit) -> int:
    """Remove gates whose nets reach no output; returns removal count."""
    live = transitive_fanin(circuit, circuit.output_nets())
    dead = [g for g in circuit.gates if g not in live]
    for g in dead:
        del circuit.gates[g]
    return len(dead)
