"""Per-layer timers and counters wrapped around the engine's entry points.

The benchmark attributes a traced pass to engine layers without
touching ``src/``: :class:`LayerProfiler` replaces each layer's public
entry point with a timing wrapper for the duration of the pass.  Where
the engine imports a function by name (``from repro.cec.equivalence
import check_equivalence``), the wrapper is installed on the importing
module's bound name; methods are wrapped on their class.

Self time is a wrapper's span minus the spans of the wrappers it
encloses, so nested layers count each second once: a ``Solver.solve``
inside ``IncrementalValidator.validate`` is charged to ``sat.solve``
only.  The solver's inclusive time is additionally bucketed by the
nearest enclosing verify / diagnose / validate layer (``sat.*_s``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers whose solver calls get their own ``sat.<context>_s`` bucket
SAT_CONTEXTS = {
    "cec.verify": "sat.verify_s",
    "cec.diagnose": "sat.diagnose_s",
    "eco.validate": "sat.validate_s",
}


@dataclass
class _Frame:
    layer: str
    start: float
    child: float = 0.0


@dataclass
class Probe:
    """One wrapped entry point.

    ``layer`` is the layer charged with the call's self time (``None``
    makes a counter-only probe that opens no span).  ``calls`` names the
    counter bumped once per entry from outside the layer.  ``before``
    runs ahead of the call and its return value is handed to ``after``
    together with the call's arguments and result.
    """

    owner: Any
    attr: str
    layer: Optional[str]
    calls: Optional[str] = None
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None


@dataclass
class LayerProfiler:
    """Self time and counters per layer for one thread's engine calls."""

    clock: Callable[[], float] = time.perf_counter
    self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    _stack: List[_Frame] = field(default_factory=list)
    _owner: Optional[int] = None
    _saved: List[Tuple[Any, str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def snapshot(self) -> Dict[str, float]:
        """Self seconds per layer plus the solver's per-context seconds."""
        snap = dict(self.self_s)
        for key in SAT_CONTEXTS.values():
            snap[key] = self.counts.get(key, 0.0)
        return snap

    def current_layer(self) -> Optional[str]:
        return self._stack[-1].layer if self._stack else None

    def enclosing(self, layers) -> Optional[str]:
        """Innermost open layer among ``layers``."""
        for frame in reversed(self._stack):
            if frame.layer in layers:
                return frame.layer
        return None

    # ------------------------------------------------------------------
    def install(self, probes: List[Probe]) -> None:
        """Wrap every probe's entry point; calls from threads other than
        the installing one pass straight through."""
        if self._saved:
            raise RuntimeError("profiler already installed")
        self._owner = threading.get_ident()
        for probe in probes:
            original = probe.owner.__dict__[probe.attr]
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(original, probe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._owner = None

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], probe: Probe):
        prof = self
        layer = probe.layer

        def wrapper(*args, **kwargs):
            if threading.get_ident() != prof._owner:
                return fn(*args, **kwargs)
            stack = prof._stack
            outer = not stack or stack[-1].layer != layer
            token = probe.before(args) if probe.before else None
            if layer is None:
                result = fn(*args, **kwargs)
                elapsed = 0.0
            else:
                frame = _Frame(layer, prof.clock())
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    elapsed = prof.clock() - frame.start
                    prof.self_s[layer] = (prof.self_s.get(layer, 0.0)
                                          + elapsed - frame.child)
                    if stack:
                        stack[-1].child += elapsed
            if outer and probe.calls:
                prof.add(probe.calls)
            if probe.after:
                probe.after(prof, token, args, result, elapsed, outer)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", probe.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


# ----------------------------------------------------------------------
# the engine's layers
# ----------------------------------------------------------------------
def _solver_counters(args):
    solver = args[0]
    return solver.conflicts, solver.propagations


def _after_solve(prof, token, args, result, elapsed, outer):
    from repro.sat import UNKNOWN

    solver = args[0]
    prof.add("sat.solve.conflicts", solver.conflicts - token[0])
    prof.add("sat.solve.propagations", solver.propagations - token[1])
    if result == UNKNOWN:
        prof.add("sat.solve.unknown")
    context = prof.enclosing(SAT_CONTEXTS)
    if context is not None:
        prof.add(SAT_CONTEXTS[context], elapsed)


def _count_pair(prof, token, args, result, elapsed, outer):
    if prof.current_layer() == "cec.diagnose":
        prof.add("cec.diagnose.sat_pairs")


def _counting(key: str):
    def after(prof, token, args, result, elapsed, outer):
        prof.add(key, len(result))
    return after


def _domain_init_before(args):
    manager = args[1]  # SamplingDomain(manager, samples, ...)
    return manager, manager.num_nodes


def _domain_cast_before(args):
    manager = args[0].manager
    return manager, manager.num_nodes


def _domain_nodes_after(prof, token, args, result, elapsed, outer):
    manager, nodes = token
    if outer:
        prof.add("bdd.domain.nodes", manager.num_nodes - nodes)


def _lint_after(prof, token, args, result, elapsed, outer):
    if not result.ok:
        prof.add("lint.screen.rejects")


def _screen_one_after(prof, token, args, result, elapsed, outer):
    if outer:
        prof.add("netlist.sim_screen.candidates")
        prof.add("netlist.sim_screen.passed", 1 if result else 0)


def _screen_batch_after(prof, token, args, result, elapsed, outer):
    prof.add("netlist.sim_screen.candidates", len(result))
    prof.add("netlist.sim_screen.passed", sum(1 for ok in result if ok))


def _validate_after(prof, token, args, result, elapsed, outer):
    if outer and result.valid:
        prof.add("eco.validate.valid")


def engine_probes() -> List[Probe]:
    """Every wrapped entry point, in installation order."""
    from repro.cec import equivalence
    from repro.eco import checkpoint, engine, parallel, validate
    from repro.eco.incremental import IncrementalValidator
    from repro.eco.rewiring import RewiringContext
    from repro.eco.sampling import SamplingDomain
    from repro.lint.patch_rules import PatchScreen
    from repro.netlist.simulate import CompiledPlan
    from repro.obs import store
    from repro.sat.solver import Solver

    return [
        Probe(engine.SysEco, "rectify", "eco.engine"),
        # final verification: sequential miter or the parallel fan-out
        Probe(engine, "check_equivalence", "cec.verify",
              "cec.verify.calls"),
        Probe(parallel, "parallel_verify", "cec.verify",
              "cec.verify.calls"),
        # diagnosis: sim pre-pass plus one SAT query per sim-equal pair
        Probe(engine, "nonequivalent_outputs", "cec.diagnose",
              "cec.diagnose.calls"),
        Probe(equivalence.PairwiseChecker, "check_pair", None,
              after=_count_pair),
        Probe(Solver, "solve", "sat.solve", "sat.solve.calls",
              before=_solver_counters, after=_after_solve),
        # the symbolic search
        Probe(engine, "collect_error_samples", "eco.samples",
              after=_counting("eco.samples.count")),
        Probe(SamplingDomain, "__init__", "bdd.domain",
              before=_domain_init_before, after=_domain_nodes_after),
        Probe(SamplingDomain, "cast_circuit", "bdd.domain",
              before=_domain_cast_before, after=_domain_nodes_after),
        Probe(engine, "feasible_point_sets", "eco.points",
              after=_counting("eco.points.point_sets")),
        Probe(engine, "enumerate_rewiring_choices", "eco.choices",
              after=_counting("eco.choices.choices")),
        Probe(RewiringContext, "__init__", "eco.rewiring"),
        Probe(RewiringContext, "candidates_for_pin", "eco.rewiring",
              "eco.rewiring.calls"),
        # candidate screens, cheapest first
        Probe(PatchScreen, "check_ops", "lint.screen", "lint.screen.calls",
              after=_lint_after),
        Probe(validate.SimulationFilter, "__init__", "netlist.sim_screen"),
        Probe(validate.SimulationFilter, "passes", "netlist.sim_screen",
              after=_screen_one_after),
        Probe(validate.SimulationFilter, "passes_batch",
              "netlist.sim_screen", after=_screen_batch_after),
        Probe(CompiledPlan, "run", "netlist.simulate",
              "netlist.simulate.calls"),
        Probe(CompiledPlan, "run_lanes", "netlist.simulate",
              "netlist.simulate.calls"),
        # full-domain validation: incremental miter, legacy oracle, and
        # the parallel merge's replay (imported lazily from validate)
        Probe(IncrementalValidator, "__init__", "eco.validate"),
        Probe(IncrementalValidator, "validate", "eco.validate",
              "eco.validate.calls", after=_validate_after),
        Probe(engine, "validate_rewire", "eco.validate",
              "eco.validate.calls", after=_validate_after),
        Probe(validate, "validate_rewire", "eco.validate",
              "eco.validate.calls", after=_validate_after),
        Probe(engine, "refine_patch_inputs", "eco.refine"),
        # --jobs: the main process's wait for workers plus the merge
        Probe(parallel, "parallel_repair", "eco.parallel"),
        Probe(parallel, "partition_targets", None,
              after=_counting("eco.parallel.workers")),
        # observability write path
        Probe(checkpoint.RunJournal, "start", "obs.journal"),
        Probe(checkpoint.RunJournal, "record_commit", "obs.journal"),
        Probe(checkpoint.RunJournal, "finish", "obs.journal"),
        Probe(store, "record_from_result", "obs.record"),
        Probe(store.RunStore, "publish", "obs.store"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(prof: LayerProfiler) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by benchmark name."""
    s, c = prof.self_s, prof.counts

    def self_of(layer: str) -> float:
        return s.get(layer, 0.0)

    return {
        "cec.verify.self_s": self_of("cec.verify"),
        "cec.verify.calls": c.get("cec.verify.calls", 0),
        "sat.verify_s": c.get("sat.verify_s", 0.0),
        "cec.diagnose.self_s": self_of("cec.diagnose"),
        "cec.diagnose.calls": c.get("cec.diagnose.calls", 0),
        "cec.diagnose.sat_pairs": c.get("cec.diagnose.sat_pairs", 0),
        "sat.diagnose_s": c.get("sat.diagnose_s", 0.0),
        "sat.solve.self_s": self_of("sat.solve"),
        "sat.solve.calls": c.get("sat.solve.calls", 0),
        "sat.solve.conflicts": c.get("sat.solve.conflicts", 0),
        "sat.solve.propagations": c.get("sat.solve.propagations", 0),
        "sat.solve.unknown_ratio": _ratio(c.get("sat.solve.unknown", 0),
                                          c.get("sat.solve.calls", 0)),
        "sat.validate_s": c.get("sat.validate_s", 0.0),
        "eco.samples.self_s": self_of("eco.samples"),
        "eco.samples.count": c.get("eco.samples.count", 0),
        "bdd.domain.self_s": self_of("bdd.domain"),
        "bdd.domain.nodes": c.get("bdd.domain.nodes", 0),
        "eco.points.self_s": self_of("eco.points"),
        "eco.points.point_sets": c.get("eco.points.point_sets", 0),
        "eco.choices.self_s": self_of("eco.choices"),
        "eco.choices.choices": c.get("eco.choices.choices", 0),
        "eco.rewiring.self_s": self_of("eco.rewiring"),
        "eco.rewiring.calls": c.get("eco.rewiring.calls", 0),
        "lint.screen.self_s": self_of("lint.screen"),
        "lint.screen.calls": c.get("lint.screen.calls", 0),
        "lint.screen.reject_ratio": _ratio(
            c.get("lint.screen.rejects", 0), c.get("lint.screen.calls", 0)),
        "netlist.sim_screen.self_s": self_of("netlist.sim_screen"),
        "netlist.sim_screen.candidates": c.get(
            "netlist.sim_screen.candidates", 0),
        "netlist.sim_screen.pass_ratio": _ratio(
            c.get("netlist.sim_screen.passed", 0),
            c.get("netlist.sim_screen.candidates", 0)),
        "netlist.simulate.self_s": self_of("netlist.simulate"),
        "netlist.simulate.calls": c.get("netlist.simulate.calls", 0),
        "eco.validate.self_s": self_of("eco.validate"),
        "eco.validate.calls": c.get("eco.validate.calls", 0),
        "eco.validate.valid_ratio": _ratio(
            c.get("eco.validate.valid", 0), c.get("eco.validate.calls", 0)),
        "eco.refine.self_s": self_of("eco.refine"),
        "eco.engine.self_s": self_of("eco.engine"),
        "obs.journal_s": self_of("obs.journal"),
        "obs.record_s": self_of("obs.record"),
        "obs.store_s": self_of("obs.store"),
        "eco.parallel.self_s": self_of("eco.parallel"),
        "eco.parallel.workers": c.get("eco.parallel.workers", 0),
    }
