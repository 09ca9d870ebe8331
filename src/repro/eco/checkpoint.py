"""Checkpoint/resume: a write-ahead journal of committed run progress.

A rectification run on an industrial case can take minutes to hours; a
run that dies at minute 40 of 45 must not start over from zero.  This
module gives every journaled run durable, replayable progress:

* :class:`RunJournal` appends one WAL record per committed unit of
  progress — the diagnosis (failing-output list), every committed
  patch (port, how, rewire ops, outputs fixed, the engine's RNG state
  and cumulative SAT conflict spend at commit time), and the final
  outcome —
  into ``<store>/journals/<run_id>.jsonl`` via the crash-safe writers
  of :mod:`repro.obs.atomicio`.
* ``repro eco --resume RUN_ID`` (from Python, ``SysEco.rectify`` with
  ``journal=RunJournal(run_id, resume=True)``) reopens the journal,
  *replays* the committed patches under the
  supervised validator (a journal is never trusted blindly — every
  replayed op set is re-proven before it is applied), restores the RNG
  stream position and SAT conflict spend of the last commit, skips the
  outputs already fixed and continues the search exactly where the
  dead run left off.  Because the engine is deterministic under a
  seed, a run killed at *any* point resumes to bit-identical patch
  outcomes.

The journal is written ahead of the in-memory commit: a crash between
the append and the circuit mutation loses nothing (the record replays
on resume), and a crash *during* the append leaves at worst a torn
trailing line, which :func:`repro.obs.atomicio.salvage_jsonl` drops on
reopen — everything before the torn write survives.

Fault injection: every append observes
:data:`~repro.runtime.faultinject.SITE_JOURNAL`, so the chaos harness
can kill the run deterministically before or in the middle of any
journal write (payloads ``"crash"`` / ``"torn"``).  On a traced run
every append is a ``journal.append`` span, so journal time shows in
the phase tree and in ``repro_journal_append_seconds``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import JournalError
from repro.netlist.circuit import Pin
from repro.eco.patch import RewireOp
from repro.obs.atomicio import append_jsonl_line, read_jsonl, salvage_jsonl
from repro.obs.store import resolve_store_root
from repro.obs.trace import NULL_TRACE, ensure_trace
from repro.runtime.faultinject import (
    FAULT_CRASH,
    FAULT_TORN,
    InjectedCrash,
    SITE_JOURNAL,
)

JOURNAL_VERSION = 1

#: subdirectory of the run store holding one journal per run
JOURNAL_DIR = "journals"


def journal_path(store_root: str, run_id: str) -> str:
    return os.path.join(store_root, JOURNAL_DIR, f"{run_id}.jsonl")


# ----------------------------------------------------------------------
# record (de)serialization
# ----------------------------------------------------------------------
def serialize_ops(ops: Sequence[RewireOp]) -> List[Dict[str, Any]]:
    """Rewire ops as plain JSON records (journal interchange form)."""
    return [{
        "kind": op.pin.kind,
        "owner": op.pin.owner,
        "index": op.pin.index,
        "source": op.source_net,
        "from_spec": op.from_spec,
    } for op in ops]


def deserialize_ops(payload: Sequence[Dict[str, Any]]) -> List[RewireOp]:
    ops: List[RewireOp] = []
    for rec in payload:
        pin = (Pin.output(rec["owner"]) if rec["kind"] == Pin.OUTPUT
               else Pin.gate(rec["owner"], int(rec["index"])))
        ops.append(RewireOp(pin, rec["source"],
                            from_spec=bool(rec["from_spec"])))
    return ops


def encode_rng_state(state: Tuple[Any, ...]) -> List[Any]:
    """``random.Random.getstate()`` as a JSON-serializable list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(payload: Sequence[Any]) -> Tuple[Any, ...]:
    version, internal, gauss_next = payload
    return (version, tuple(internal), gauss_next)


def config_digest(config: Any) -> str:
    """Stable digest of an :class:`EcoConfig`.

    Bit-identical resumption requires the resumed run to search under
    the *same* configuration, so a journal refuses a config whose
    digest differs from the one it recorded.
    """
    if dataclasses.is_dataclass(config):
        payload = dataclasses.asdict(config)
    else:
        payload = dict(config or {})
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
@dataclass
class JournalCommit:
    """One committed patch, as replayed on resume."""

    seq: int
    port: str
    how: str
    ops: List[RewireOp]
    fixed: List[str]
    rng_state: Optional[List[Any]] = None
    sat_spent: int = 0


@dataclass
class JournalState:
    """Everything :meth:`RunJournal.load` recovers from disk."""

    header: Optional[Dict[str, Any]] = None
    failing: Optional[List[str]] = None
    commits: List[JournalCommit] = field(default_factory=list)
    finished: Optional[str] = None
    salvaged: Optional[str] = None
    skipped: int = 0


class RunJournal:
    """Write-ahead journal of one run's committed progress.

    Args:
        run_id: the run's durable identity (``repro eco --resume`` key).
        store_root: run-store directory; the journal file lives in its
            ``journals/`` subdirectory.  ``None`` or ``""`` resolves
            as for :class:`~repro.obs.store.RunStore`
            (:func:`~repro.obs.store.resolve_store_root`).
        resume: reload existing records (salvaging a torn tail) so the
            engine can replay them; without it an existing file is an
            error — journal ids are never silently reused.
    """

    def __init__(self, run_id: str, store_root: Optional[str] = None,
                 resume: bool = False):
        self.run_id = run_id
        self.store_root = resolve_store_root(store_root)
        self.path = journal_path(self.store_root, run_id)
        self.state = JournalState()
        self._injector = None
        self._trace = NULL_TRACE
        self._seq = 0
        if resume:
            self.load()
        elif os.path.exists(self.path):
            raise JournalError(
                f"journal for run {run_id!r} already exists at "
                f"{self.path!r}; use resume to continue it")

    # ------------------------------------------------------------------
    @property
    def resuming(self) -> bool:
        """True when a prior run's header was recovered from disk."""
        return self.state.header is not None

    @property
    def commits(self) -> List[JournalCommit]:
        return self.state.commits

    def bind(self, injector, trace=None) -> None:
        """Route subsequent appends through a fault injector, and time
        each one as a ``journal.append`` span on the run's ``trace``."""
        self._injector = injector
        self._trace = ensure_trace(trace)

    # ------------------------------------------------------------------
    def load(self) -> JournalState:
        """(Re)load the journal, salvaging a torn trailing record."""
        state = JournalState()
        state.salvaged = salvage_jsonl(self.path)
        payloads, state.skipped = read_jsonl(self.path)
        for rec in payloads:
            kind = rec.get("type")
            if kind == "run_started":
                state.header = rec
            elif kind == "diagnosed":
                state.failing = list(rec.get("failing", []))
            elif kind == "commit":
                state.commits.append(JournalCommit(
                    seq=int(rec.get("seq", len(state.commits) + 1)),
                    port=str(rec.get("port")),
                    how=str(rec.get("how", "rewire")),
                    ops=deserialize_ops(rec.get("ops", [])),
                    fixed=list(rec.get("fixed", [])),
                    rng_state=rec.get("rng_state"),
                    sat_spent=int(rec.get("sat_spent", 0)),
                ))
            elif kind == "run_finished":
                state.finished = str(rec.get("outcome", "?"))
        self.state = state
        self._seq = len(state.commits)
        return state

    # ------------------------------------------------------------------
    def check_resumable(self, impl_name: str, config: Any,
                        failing: Sequence[str]) -> None:
        """Refuse to resume against a different problem.

        Bit-identical resumption is only defined for the same design
        pair under the same configuration; a mismatched implementation
        name, config digest or diagnosed failing set means the journal
        belongs to a different run and replaying it would corrupt the
        result.
        """
        header = self.state.header or {}
        if header.get("impl") != impl_name:
            raise JournalError(
                f"journal {self.run_id} was recorded for design "
                f"{header.get('impl')!r}, not {impl_name!r}")
        digest = config_digest(config)
        if header.get("config_digest") != digest:
            raise JournalError(
                f"journal {self.run_id} was recorded under a different "
                "configuration; resume with the original settings "
                f"(digest {header.get('config_digest')} != {digest})")
        if self.state.failing is not None \
                and list(failing) != list(self.state.failing):
            raise JournalError(
                f"journal {self.run_id} diagnosed failing outputs "
                f"{self.state.failing}, but this run diagnosed "
                f"{list(failing)}; the input netlists changed")
        if self.state.finished is not None:
            raise JournalError(
                f"run {self.run_id} already finished "
                f"({self.state.finished}); nothing to resume")

    # ------------------------------------------------------------------
    # WAL appends
    # ------------------------------------------------------------------
    def start(self, impl_name: str, config: Any,
              failing: Sequence[str]) -> None:
        """Journal the run header and the diagnosis."""
        self._append({
            "type": "run_started",
            "version": JOURNAL_VERSION,
            "run_id": self.run_id,
            "impl": impl_name,
            "config_digest": config_digest(config),
        })
        self._append({"type": "diagnosed", "failing": list(failing)})

    def record_commit(self, port: str, how: str,
                      ops: Sequence[RewireOp], fixed: Sequence[str],
                      rng_state: Optional[Tuple[Any, ...]] = None,
                      sat_spent: int = 0) -> None:
        """Journal one committed patch (write-ahead of the mutation)."""
        self._seq += 1
        self._append({
            "type": "commit",
            "seq": self._seq,
            "port": port,
            "how": how,
            "ops": serialize_ops(ops),
            "fixed": list(fixed),
            "rng_state": (encode_rng_state(rng_state)
                          if rng_state is not None else None),
            "sat_spent": sat_spent,
        })

    def finish(self, outcome: str) -> None:
        """Journal the terminal outcome; the run stops being resumable."""
        self._append({"type": "run_finished", "outcome": outcome})

    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        if self._injector is not None:
            fault = self._injector.observe(SITE_JOURNAL)
            if fault is not None and fault.payload == FAULT_CRASH:
                raise InjectedCrash(
                    f"fault injection: process killed before journal "
                    f"append {self._injector.calls(SITE_JOURNAL)}")
            if fault is not None and fault.payload == FAULT_TORN:
                self._tear(record)
                raise InjectedCrash(
                    f"fault injection: process killed mid-append "
                    f"{self._injector.calls(SITE_JOURNAL)} (torn write)")
        with self._trace.span("journal.append"):
            append_jsonl_line(self.path, record)

    def _tear(self, record: Dict[str, Any]) -> None:
        """Write half a record non-atomically, as a dying legacy writer
        would — the torn tail the salvage path must recover from."""
        line = json.dumps(record, sort_keys=True, default=str)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line[:max(1, len(line) // 2)])


# ----------------------------------------------------------------------
# recovery listing
# ----------------------------------------------------------------------
def list_resumable(store_root: Optional[str] = None) -> List[Dict[str, Any]]:
    """Journals of runs that started but never finished, oldest first.

    Each entry carries the run id, design name, committed-patch count
    and whether the journal needed salvage — the data ``repro runs
    recover`` renders.
    """
    root = resolve_store_root(store_root)
    directory = os.path.join(root, JOURNAL_DIR)
    if not os.path.isdir(directory):
        return []
    entries: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        run_id = name[:-len(".jsonl")]
        journal = RunJournal(run_id, store_root=root, resume=True)
        state = journal.state
        if state.finished is not None:
            continue
        entries.append({
            "run_id": run_id,
            "impl": (state.header or {}).get("impl"),
            "commits": len(state.commits),
            "started": state.header is not None,
            "salvaged": state.salvaged is not None,
            "path": journal.path,
        })
    return entries
