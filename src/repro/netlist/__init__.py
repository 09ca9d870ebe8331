"""Combinational netlist data model.

This package provides the design representation of Section 3.1 of the
paper: circuits made of multi-input single-output gates, connected by
named nets that carry a value from one source pin to many sink pins.

The central class is :class:`~repro.netlist.circuit.Circuit`.  Supporting
modules add traversal (topological order, transitive fanin/fanout),
64-way parallel simulation, structural hashing, BLIF /
structural-Verilog I/O and statistics that mirror the columns of Table 1
in the paper.  Well-formedness checks live in
:mod:`repro.lint.netlist_rules`.
"""

from repro.netlist.gate import Gate, GateType
from repro.netlist.circuit import Circuit, Pin
from repro.netlist.traverse import (
    topological_order,
    transitive_fanin,
    transitive_fanout,
    input_support,
    levelize,
)
from repro.netlist.simulate import simulate, simulate_words, random_patterns
from repro.netlist.hashing import structural_hash, strash
from repro.netlist.stats import CircuitStats, circuit_stats
from repro.netlist.io_blif import read_blif, write_blif, loads_blif, dumps_blif
from repro.netlist.io_verilog import (
    write_verilog,
    dumps_verilog,
    read_verilog,
    loads_verilog,
)
from repro.netlist.io_aiger import (
    read_aiger,
    write_aiger,
    loads_aiger,
    dumps_aiger,
)

__all__ = [
    "Gate",
    "GateType",
    "Circuit",
    "Pin",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
    "input_support",
    "levelize",
    "simulate",
    "simulate_words",
    "random_patterns",
    "structural_hash",
    "strash",
    "CircuitStats",
    "circuit_stats",
    "read_blif",
    "write_blif",
    "loads_blif",
    "dumps_blif",
    "write_verilog",
    "dumps_verilog",
    "read_verilog",
    "loads_verilog",
    "read_aiger",
    "write_aiger",
    "loads_aiger",
    "dumps_aiger",
]
