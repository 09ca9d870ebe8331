"""Sanctioned synchronization primitives with optional runtime tracing.

Every thread, lock and event in the codebase is constructed through
this module (the ``CC001`` concurrency lint rule enforces it).  The
factories have two modes:

* **disabled** (the default): :func:`make_lock` & co. return the bare
  ``threading`` primitives — zero wrappers, zero indirection, zero
  overhead.  This is the production path.
* **enabled** (``REPRO_SYNC_DEBUG=1`` in the environment, or
  :func:`enable_sync_debug`): the factories return ``Traced*``
  wrappers that maintain a process-wide **lock-acquisition-order
  graph**.  Acquiring lock *B* while holding lock *A* records the edge
  ``A -> B`` with the acquiring thread and stack; the first
  acquisition that closes a cycle in that graph is a potential
  deadlock and is reported as a structured :class:`LockOrderViolation`
  carrying *both* acquisition stacks (the one that established the
  forward edges and the one that closed the cycle).  Traced locks also
  feed per-lock wait-time histograms into the
  :class:`~repro.obs.metrics.MetricsRegistry` a traced run binds with
  :func:`set_sync_registry` (``repro_sync_lock_wait_seconds``, the
  ``sync.lock_wait`` family — persisted in run records and p95-gated
  by ``repro runs regress`` like every other latency family).

The tracing layer additionally observes the :data:`SITE_SYNC` fault
site once per traced acquisition.  The race-fuzzing harness
(:mod:`repro.lint.racecheck`) arms that site with seeded sleep
payloads to inject deterministic preemption jitter at exactly the
boundaries where interleavings matter.

Ordering discipline is tracked per lock *name* (the role a lock plays,
e.g. ``"metrics.registry"``), not per instance: a discipline such as
"never take role A while holding role B" is what stays true across
runs, while instance identities do not.  Reentrant
acquisitions of the same instance (``TracedRLock``) add no edges, and
same-name edges are ignored (two instances of the same role are never
nested in this codebase; flagging them would make every sharded lock a
false positive).

This module is intentionally pure stdlib and imports nothing from the
rest of the package, so any layer (``obs`` included) may import it
without cycles.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

logger = logging.getLogger("repro.runtime")

#: environment switch: any non-empty value except "0" enables tracing
SYNC_DEBUG_ENV = "REPRO_SYNC_DEBUG"

#: fault-injection site observed once per traced-primitive acquisition
#: (payload: seconds of preemption jitter to sleep before acquiring)
SITE_SYNC = "sync.acquire"

#: metric family fed with per-lock wait times while tracing is enabled
LOCK_WAIT_HISTOGRAM = ("repro_sync_lock_wait_seconds",
                       "lock acquisition wait time per traced lock")

#: stack frames kept per recorded acquisition edge
STACK_DEPTH = 12


def _capture_stack() -> Tuple[str, ...]:
    """The acquiring call stack, innermost last, sync frames dropped."""
    here = os.path.dirname(os.path.abspath(__file__))
    sync_file = os.path.join(here, "sync.py")
    frames = traceback.extract_stack()
    kept = [f"{f.filename}:{f.lineno} in {f.name}"
            for f in frames if f.filename != sync_file]
    return tuple(kept[-STACK_DEPTH:])


@dataclass(frozen=True)
class LockOrderEdge:
    """One observed ordering ``src`` held while ``dst`` was acquired."""

    src: str
    dst: str
    thread: str
    stack: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {"src": self.src, "dst": self.dst, "thread": self.thread,
                "stack": list(self.stack)}


@dataclass(frozen=True)
class LockOrderViolation:
    """A cycle in the lock-order graph: a potential deadlock.

    ``edges`` walks the cycle: the closing edge (the acquisition that
    completed the cycle) first, then the previously recorded edges of
    the return path — so the violation carries the acquisition stack
    of *both* conflicting orders.
    """

    cycle: Tuple[str, ...]
    edges: Tuple[LockOrderEdge, ...]

    def summary(self) -> str:
        """The cycle on one line (log messages, diagnostic text)."""
        return "lock-order inversion: " + " -> ".join(self.cycle)

    def render(self) -> str:
        """Full report: the cycle plus the acquisition stack of every
        edge — i.e. *both* conflicting orders, each with the thread
        that took it and where."""
        lines = [self.summary()]
        for edge in self.edges:
            lines.append(f"  {edge.src} -> {edge.dst} "
                         f"[thread {edge.thread}]")
            lines.extend(f"    {frame}" for frame in edge.stack)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {"cycle": list(self.cycle),
                "edges": [e.as_dict() for e in self.edges]}


class _HeldLocks(threading.local):
    """Per-thread stack of held traced locks: ``[key, name, count]``."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []


class SyncDebugState:
    """The process-wide lock-order graph and its violation log.

    All mutation happens under one private raw lock (the guard itself
    is deliberately *not* traced).  The jitter injector and the metrics
    registry are rebindable at any time; both are optional.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        #: (src, dst) -> first edge observed with that ordering
        self._edges: Dict[Tuple[str, str], LockOrderEdge] = {}
        self._violations: List[LockOrderViolation] = []
        self._reported: Set[Tuple[str, ...]] = set()
        self._held = _HeldLocks()
        #: per-thread flag: currently inside :meth:`_observe_wait`
        self._observing = threading.local()
        self._locks_seen: Set[str] = set()
        self.registry: Optional[Any] = None
        self.jitter: Optional[Any] = None
        self.acquisitions = 0

    # -- wiring --------------------------------------------------------
    def set_registry(self, registry: Optional[Any]) -> None:
        self.registry = registry

    def set_jitter(self, injector: Optional[Any]) -> None:
        """Install a fault injector observed at :data:`SITE_SYNC`."""
        self.jitter = injector

    def reset(self) -> None:
        """Drop the recorded graph and violations (harness re-runs)."""
        with self._guard:
            self._edges.clear()
            self._violations.clear()
            self._reported.clear()
            self._locks_seen.clear()
            self.acquisitions = 0

    # -- acquisition protocol ------------------------------------------
    def before_acquire(self, name: str) -> None:
        """Jitter hook: runs before the inner primitive is acquired."""
        injector = self.jitter
        if injector is None:
            return
        fault = injector.observe(SITE_SYNC)
        if fault is not None:
            time.sleep(float(fault.payload or 0.0))

    def on_acquired(self, key: int, name: str, wait_s: float) -> None:
        """Record one successful acquisition of lock ``key``/``name``."""
        stack = self._held.stack
        for entry in stack:
            if entry[0] == key:          # reentrant: no new edges
                entry[2] += 1
                return
        holders = [entry[1] for entry in stack]
        with self._guard:
            self.acquisitions += 1
            self._locks_seen.add(name)
            for held_name in holders:
                if held_name == name:
                    continue
                pair = (held_name, name)
                if pair not in self._edges:
                    edge = LockOrderEdge(held_name, name,
                                         threading.current_thread().name,
                                         _capture_stack())
                    self._edges[pair] = edge
                    self._check_cycle(edge)
        stack.append([key, name, 1])
        self._observe_wait(name, wait_s)

    def on_released(self, key: int) -> None:
        stack = self._held.stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == key:
                stack[i][2] -= 1
                if stack[i][2] <= 0:
                    del stack[i]
                return
        # released by a thread that never acquired it: legal for a bare
        # Lock, nothing to unwind here

    def _observe_wait(self, name: str, wait_s: float) -> None:
        registry = self.registry
        if registry is None:
            return
        # observer effect: recording a wait acquires the registry's
        # *own* (possibly traced) locks — observing those would
        # re-enter the registry while its mutex is held and
        # self-deadlock, so the ``metrics.*`` roles never self-report
        if name.startswith("metrics."):
            return
        # belt-and-braces reentrancy guard for any other path that
        # lands back here while an observation is already in flight
        if getattr(self._observing, "active", False):
            return
        self._observing.active = True
        try:
            registry.histogram(LOCK_WAIT_HISTOGRAM[0],
                               labels={"lock": name},
                               help=LOCK_WAIT_HISTOGRAM[1]
                               ).observe(wait_s)
        except Exception:  # telemetry must never take a lock down
            logger.debug("sync wait histogram unavailable", exc_info=True)
        finally:
            self._observing.active = False

    # -- cycle detection -----------------------------------------------
    def _check_cycle(self, new_edge: LockOrderEdge) -> None:
        """DFS from ``new_edge.dst`` back to ``new_edge.src``.

        Called with ``_guard`` held, right after inserting the edge; a
        found path means the graph now carries both orderings.
        """
        path = self._find_path(new_edge.dst, new_edge.src)
        if path is None:
            return
        cycle = (new_edge.src,) + tuple(path)
        canon = self._canonical(cycle)
        if canon in self._reported:
            return
        self._reported.add(canon)
        edges = [new_edge]
        for a, b in zip(path, path[1:]):
            edges.append(self._edges[(a, b)])
        violation = LockOrderViolation(cycle=cycle, edges=tuple(edges))
        self._violations.append(violation)
        logger.warning("%s (stacks recorded for both orders)",
                       violation.summary())

    def _find_path(self, start: str,
                   goal: str) -> Optional[Tuple[str, ...]]:
        """A node path ``start .. goal`` in the edge graph, or None."""
        adjacency: Dict[str, List[str]] = {}
        for (a, b) in self._edges:
            adjacency.setdefault(a, []).append(b)
        stack: List[Tuple[str, Tuple[str, ...]]] = [(start, (start,))]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + (nxt,)))
        return None

    @staticmethod
    def _canonical(cycle: Tuple[str, ...]) -> Tuple[str, ...]:
        """Rotation-invariant form of a cycle for deduplication."""
        names = cycle[:-1] if len(cycle) > 1 and cycle[0] == cycle[-1] \
            else cycle
        pivot = min(range(len(names)), key=lambda i: names[i])
        return names[pivot:] + names[:pivot]

    # -- reporting -----------------------------------------------------
    @property
    def violations(self) -> Tuple[LockOrderViolation, ...]:
        with self._guard:
            return tuple(self._violations)

    def graph_as_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot of the graph (the CI artifact format)."""
        with self._guard:
            return {
                "locks": sorted(self._locks_seen),
                "acquisitions": self.acquisitions,
                "edges": [self._edges[k].as_dict()
                          for k in sorted(self._edges)],
                "violations": [v.as_dict() for v in self._violations],
            }


# ----------------------------------------------------------------------
# traced primitives
# ----------------------------------------------------------------------
class TracedLock:
    """A ``threading.Lock`` recording order edges and wait times."""

    _inner_factory = staticmethod(threading.Lock)

    def __init__(self, name: str, state: SyncDebugState):
        self.name = name
        self._state = state
        self._inner = self._inner_factory()

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        self._state.before_acquire(self.name)
        started = time.monotonic()
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._state.on_acquired(id(self), self.name,
                                    time.monotonic() - started)
        return got

    def release(self) -> None:
        self._state.on_released(id(self))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class TracedRLock(TracedLock):
    """A ``threading.RLock`` wrapper; reentrancy adds no order edges."""

    _inner_factory = staticmethod(threading.RLock)


class TracedEvent:
    """A ``threading.Event`` whose waits observe the jitter site.

    Event waits are expected to be long (pollers, shutdown signals), so
    they are *not* fed into the lock-wait histogram and add no order
    edges — only the preemption-jitter hook applies.
    """

    def __init__(self, name: str, state: SyncDebugState):
        self.name = name
        self._state = state
        self._inner = threading.Event()

    def set(self) -> None:
        self._inner.set()

    def clear(self) -> None:
        self._inner.clear()

    def is_set(self) -> bool:
        return self._inner.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._state.before_acquire(self.name)
        return self._inner.wait(timeout)

    def __repr__(self) -> str:
        return f"<TracedEvent {self.name!r}>"


# ----------------------------------------------------------------------
# global switch + factories
# ----------------------------------------------------------------------
_state_guard = threading.Lock()
_state: Optional[SyncDebugState] = None


def sync_debug_enabled() -> bool:
    """True while the tracing layer is active."""
    return _state is not None


def sync_state() -> Optional[SyncDebugState]:
    """The active debug state, or ``None`` when tracing is off."""
    return _state


def enable_sync_debug(registry: Optional[Any] = None,
                      injector: Optional[Any] = None) -> SyncDebugState:
    """Turn the tracing layer on (idempotent); returns the state.

    Only primitives constructed *after* this call are traced — the
    factories decide at construction time so the disabled path stays
    bare-metal.  ``registry``/``injector`` rebind the existing state
    when tracing is already on.
    """
    global _state
    with _state_guard:
        if _state is None:
            _state = SyncDebugState()
        if registry is not None:
            _state.set_registry(registry)
        if injector is not None:
            _state.set_jitter(injector)
        return _state


def disable_sync_debug() -> None:
    """Turn the tracing layer off; existing traced locks keep working
    against their (now detached) state."""
    global _state
    with _state_guard:
        _state = None


def set_sync_registry(registry: Optional[Any]) -> None:
    """Bind the metrics registry receiving ``sync.lock_wait`` samples
    (no-op while tracing is disabled)."""
    state = _state
    if state is not None:
        state.set_registry(registry)


def sync_violations() -> Tuple[LockOrderViolation, ...]:
    """Violations recorded so far (empty when tracing is off)."""
    state = _state
    return state.violations if state is not None else ()


def sync_graph() -> Dict[str, Any]:
    """JSON-able lock-order graph snapshot (CI artifact)."""
    state = _state
    if state is None:
        return {"enabled": False, "locks": [], "acquisitions": 0,
                "edges": [], "violations": []}
    doc = state.graph_as_dict()
    doc["enabled"] = True
    return doc


def make_lock(name: str = "lock") -> Any:
    """A mutex: bare ``threading.Lock`` or a traced wrapper."""
    state = _state
    if state is None:
        return threading.Lock()
    return TracedLock(name, state)


def make_rlock(name: str = "rlock") -> Any:
    """A reentrant mutex, traced when debugging is enabled."""
    state = _state
    if state is None:
        return threading.RLock()
    return TracedRLock(name, state)


def make_event(name: str = "event") -> Any:
    """An event: bare ``threading.Event`` or the traced wrapper."""
    state = _state
    if state is None:
        return threading.Event()
    return TracedEvent(name, state)


def make_thread(target: Any, name: str, daemon: bool = False,
                args: Tuple[Any, ...] = (),
                kwargs: Optional[Dict[str, Any]] = None
                ) -> threading.Thread:
    """The sanctioned thread constructor (CC001/CC006 seam).

    Threads are always named — anonymous ``Thread-N`` names make
    ``faulthandler`` dumps and lock-order stacks unreadable.
    """
    return threading.Thread(target=target, name=name, daemon=daemon,
                            args=args, kwargs=kwargs or {})


def safe_mp_context() -> Any:
    """An *explicit* multiprocessing context for process pools (CC005).

    ``fork`` after threads exist is undefined behavior (the child
    inherits locked locks whose owners never ran).  While the process
    is still single-threaded the fast ``fork`` method is safe and is
    kept; once any helper thread is alive the pool falls back to
    ``spawn``.
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if "fork" in available and threading.active_count() == 1:
        method = "fork"
    elif "spawn" in available:
        method = "spawn"
    else:  # exotic platforms: trust the configured default
        method = multiprocessing.get_start_method()
    return multiprocessing.get_context(method)


@dataclass
class _EnvBootstrap:
    """Import-time switch state (kept for introspection in tests)."""

    raw: Optional[str] = None
    enabled: bool = False
    errors: List[str] = field(default_factory=list)


def _bootstrap_from_env() -> _EnvBootstrap:
    boot = _EnvBootstrap(raw=os.environ.get(SYNC_DEBUG_ENV))
    if boot.raw and boot.raw != "0":
        enable_sync_debug()
        boot.enabled = True
    return boot


ENV_BOOTSTRAP = _bootstrap_from_env()
