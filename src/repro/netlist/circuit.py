"""The :class:`Circuit` class: a well-formed combinational netlist.

A circuit owns a set of *nets*, each driven by exactly one source — a
primary input or a gate output — and consumed at *sink pins*: gate input
pins and primary-output ports.  Net names equal the name of their source
(the input name or the gate name), which keeps the model compact and
makes rewiring a pure name substitution.

The rewiring edit of the paper (Section 3.3) maps onto two methods:
:meth:`Circuit.rewire_pin` redirects one sink pin to another net, and
:meth:`Circuit.pin_driver` reads the net currently driving a pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import NetlistError
from repro.netlist.gate import Gate, GateType


class Pin:
    """A sink pin: one consumer of a net.

    Two kinds exist:

    * gate input pins — ``Pin.gate(gate_name, index)``;
    * primary-output ports — ``Pin.output(port_name)``.

    Pins are immutable and hashable so they can key dictionaries of
    rectification candidates.
    """

    __slots__ = ("kind", "owner", "index")

    GATE = "gate"
    OUTPUT = "output"

    def __init__(self, kind: str, owner: str, index: int = 0):
        if kind not in (Pin.GATE, Pin.OUTPUT):
            raise NetlistError(f"bad pin kind {kind!r}")
        self.kind = kind
        self.owner = owner
        self.index = index

    @staticmethod
    def gate(gate_name: str, index: int) -> "Pin":
        return Pin(Pin.GATE, gate_name, index)

    @staticmethod
    def output(port_name: str) -> "Pin":
        return Pin(Pin.OUTPUT, port_name, 0)

    @property
    def is_output_port(self) -> bool:
        return self.kind == Pin.OUTPUT

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pin)
            and self.kind == other.kind
            and self.owner == other.owner
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.owner, self.index))

    def __repr__(self) -> str:
        if self.kind == Pin.OUTPUT:
            return f"Pin.output({self.owner!r})"
        return f"Pin.gate({self.owner!r}, {self.index})"

    def __lt__(self, other: "Pin") -> bool:
        return (self.kind, self.owner, self.index) < (
            other.kind,
            other.owner,
            other.index,
        )


class Circuit:
    """A combinational netlist.

    Attributes:
        name: circuit name (used by the writers).
        inputs: primary-input names in declaration order.
        outputs: mapping from output-port name to the net it observes.
        gates: mapping from gate name to :class:`Gate`.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: Dict[str, str] = {}
        self.gates: Dict[str, Gate] = {}
        self._input_set: set = set()
        #: derived-data cache (topological orders, compiled simulation
        #: plans, structural digests); dropped on any mutation.  Helpers
        #: in repro.netlist own their keys; see :meth:`derived_cache`.
        self._derived: dict = {}

    # ------------------------------------------------------------------
    # derived-data cache
    # ------------------------------------------------------------------
    def derived_cache(self) -> dict:
        """Cache for data derived from the current topology.

        Entries are owned by the computing helpers
        (:func:`repro.netlist.traverse.topological_order`,
        :func:`repro.netlist.simulate.compiled_plan`, ...) and must be
        pure functions of the circuit structure: any mutating edit
        clears the whole cache.
        """
        return self._derived

    def _invalidate_derived(self) -> None:
        if self._derived:
            self._derived = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input; returns its net name."""
        if name in self._input_set or name in self.gates:
            raise NetlistError(f"duplicate net name {name!r}")
        self.inputs.append(name)
        self._input_set.add(name)
        self._invalidate_derived()
        return name

    def add_inputs(self, names: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in names]

    def add_gate(self, name: str, gtype: GateType, fanins: Sequence[str]) -> str:
        """Add a gate driving a net of the same name; returns the name."""
        if name in self._input_set or name in self.gates:
            raise NetlistError(f"duplicate net name {name!r}")
        for f in fanins:
            if not self.has_net(f):
                raise NetlistError(
                    f"gate {name!r}: fanin net {f!r} does not exist"
                )
        self.gates[name] = Gate(name, gtype, fanins)
        self._invalidate_derived()
        return name

    def set_output(self, port: str, net: str) -> None:
        """Connect (or reconnect) an output port to a net."""
        if not self.has_net(net):
            raise NetlistError(f"output {port!r}: net {net!r} does not exist")
        self.outputs[port] = net
        self._invalidate_derived()

    # Convenience constructors used heavily by the workload generators
    # and tests.  Each adds a gate with a fresh or given name.
    def _fresh(self, prefix: str) -> str:
        i = len(self.gates)
        name = f"{prefix}{i}"
        while name in self.gates or name in self._input_set:
            i += 1
            name = f"{prefix}{i}"
        return name

    def add(self, gtype: GateType, fanins: Sequence[str],
            name: Optional[str] = None) -> str:
        return self.add_gate(name or self._fresh("n"), gtype, fanins)

    def const0(self, name: Optional[str] = None) -> str:
        return self.add(GateType.CONST0, [], name)

    def const1(self, name: Optional[str] = None) -> str:
        return self.add(GateType.CONST1, [], name)

    def buf(self, a: str, name: Optional[str] = None) -> str:
        return self.add(GateType.BUF, [a], name)

    def not_(self, a: str, name: Optional[str] = None) -> str:
        return self.add(GateType.NOT, [a], name)

    def and_(self, *fanins: str, name: Optional[str] = None) -> str:
        return self.add(GateType.AND, list(fanins), name)

    def or_(self, *fanins: str, name: Optional[str] = None) -> str:
        return self.add(GateType.OR, list(fanins), name)

    def nand(self, *fanins: str, name: Optional[str] = None) -> str:
        return self.add(GateType.NAND, list(fanins), name)

    def nor(self, *fanins: str, name: Optional[str] = None) -> str:
        return self.add(GateType.NOR, list(fanins), name)

    def xor(self, *fanins: str, name: Optional[str] = None) -> str:
        return self.add(GateType.XOR, list(fanins), name)

    def xnor(self, *fanins: str, name: Optional[str] = None) -> str:
        return self.add(GateType.XNOR, list(fanins), name)

    def mux(self, sel: str, d0: str, d1: str,
            name: Optional[str] = None) -> str:
        return self.add(GateType.MUX, [sel, d0, d1], name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_net(self, name: str) -> bool:
        return name in self._input_set or name in self.gates

    def is_input(self, name: str) -> bool:
        return name in self._input_set

    def nets(self) -> Iterator[str]:
        """All net names: inputs first, then gate outputs."""
        yield from self.inputs
        yield from self.gates

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_nets(self) -> int:
        return len(self.inputs) + len(self.gates)

    def sinks(self, net: str) -> List[Pin]:
        """All sink pins currently connected to ``net``."""
        out = []
        for g in self.gates.values():
            for i, f in enumerate(g.fanins):
                if f == net:
                    out.append(Pin.gate(g.name, i))
        for port, n in self.outputs.items():
            if n == net:
                out.append(Pin.output(port))
        return out

    def sink_map(self) -> Dict[str, List[Pin]]:
        """Mapping net -> sink pins, computed in one pass."""
        out: Dict[str, List[Pin]] = {n: [] for n in self.nets()}
        for g in self.gates.values():
            for i, f in enumerate(g.fanins):
                out[f].append(Pin.gate(g.name, i))
        for port, n in self.outputs.items():
            out[n].append(Pin.output(port))
        return out

    @property
    def num_sinks(self) -> int:
        """Total sink-pin count (the 'sinks' column of Table 1)."""
        return sum(len(g.fanins) for g in self.gates.values()) + len(self.outputs)

    def pin_driver(self, pin: Pin) -> str:
        """The net currently driving ``pin``."""
        if pin.is_output_port:
            try:
                return self.outputs[pin.owner]
            except KeyError:
                raise NetlistError(f"no output port {pin.owner!r}")
        try:
            gate = self.gates[pin.owner]
        except KeyError:
            raise NetlistError(f"no gate {pin.owner!r}")
        if pin.index >= len(gate.fanins):
            raise NetlistError(
                f"gate {pin.owner!r} has no input pin {pin.index}"
            )
        return gate.fanins[pin.index]

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def rewire_pin(self, pin: Pin, net: str) -> str:
        """Disconnect ``pin`` from its driver and connect it to ``net``.

        This is the elementary rewire operation ``p/s`` of Section 3.3.
        Returns the previous driver.  The caller is responsible for
        keeping the circuit acyclic (the ECO engine checks the paper's
        topological constraint before committing a rewire); use
        :func:`repro.lint.netlist_rules.lint_netlist` to verify
        afterwards.
        """
        if not self.has_net(net):
            raise NetlistError(f"rewire target net {net!r} does not exist")
        old = self.pin_driver(pin)
        if pin.is_output_port:
            self.outputs[pin.owner] = net
        else:
            self.gates[pin.owner].fanins[pin.index] = net
        self._invalidate_derived()
        return old

    def replace_gate(self, name: str, gtype: GateType,
                     fanins: Sequence[str]) -> None:
        """Give gate ``name`` a new operation and fanin list in place.

        The gate keeps its name (so its sinks and ports are untouched)
        and its position in :attr:`gates`.  As with :meth:`rewire_pin`,
        keeping the circuit acyclic is the caller's job.
        """
        if name not in self.gates:
            raise NetlistError(f"no gate {name!r}")
        for f in fanins:
            if not self.has_net(f):
                raise NetlistError(
                    f"gate {name!r}: fanin net {f!r} does not exist"
                )
        self.gates[name] = Gate(name, gtype, fanins)
        self._invalidate_derived()

    def replace_net(self, old: str, new: str) -> int:
        """Redirect every sink of ``old`` to ``new``; returns sink count."""
        count = 0
        for pin in self.sinks(old):
            self.rewire_pin(pin, new)
            count += 1
        return count

    def remove_gate(self, name: str) -> None:
        """Remove a gate whose net has no sinks."""
        if name not in self.gates:
            raise NetlistError(f"no gate {name!r}")
        if self.sinks(name):
            raise NetlistError(f"gate {name!r} still has sinks")
        del self.gates[name]
        self._invalidate_derived()

    def remove_gates(self, names: Iterable[str]) -> None:
        """Remove a set of gates no remaining gate or port reads.

        The bulk form of :meth:`remove_gate`: the removed gates may
        read one another, and one pass checks the rest of the circuit.
        """
        doomed = set(names)
        missing = doomed - self.gates.keys()
        if missing:
            raise NetlistError(f"no gate {min(missing)!r}")
        for g in self.gates.values():
            if g.name not in doomed and not doomed.isdisjoint(g.fanins):
                raise NetlistError(
                    f"gate {g.name!r} still reads a removed gate")
        for port, net in self.outputs.items():
            if net in doomed:
                raise NetlistError(
                    f"output {port!r} still reads gate {net!r}")
        for name in doomed:
            del self.gates[name]
        self._invalidate_derived()

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy of the circuit."""
        c = Circuit(name or self.name)
        c.inputs = list(self.inputs)
        c._input_set = set(self._input_set)
        c.outputs = dict(self.outputs)
        c.gates = {k: g.copy() for k, g in self.gates.items()}
        return c

    def __getstate__(self) -> dict:
        # the derived cache can be large (compiled plans) and is cheap
        # to recompute; don't ship it across process boundaries
        state = dict(self.__dict__)
        state["_derived"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # circuits pickled by older versions predate the cache
        if "_derived" not in self.__dict__:
            self._derived = {}

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}: {len(self.inputs)} inputs, "
            f"{len(self.outputs)} outputs, {len(self.gates)} gates)"
        )

    def output_nets(self) -> List[str]:
        return [self.outputs[p] for p in self.outputs]
