"""Crash-safe file writes for traces and run records.

Every trace export and every run-store write goes through
:func:`atomic_write_text`: the content is written to a temporary file
in the *same directory* as the target, flushed and fsynced, then
renamed over the target with ``os.replace``.  POSIX rename is atomic,
so a reader never observes a half-written file and a killed writer
leaves at worst an orphaned ``.tmp-*`` file — never a truncated trace
that breaks ``repro runs list`` or ``repro trace``.

Appending to a JSONL file is implemented as read + append + atomic
rewrite (:func:`append_jsonl_line`), so these writers never leave a
torn line, but appending n records rewrites O(n^2) bytes.  The cost
shows: in a 70-run ``ecobench`` ``observed`` pass (2-core VM, CPython
3.11) the 400 record and journal appends took 0.39-0.53 s of 3.3-4.6 s
(four passes) and rewrote 18.6 MB, for a ``records.jsonl`` that ends
at 455 KB.  An in-place append would be linear, but a reader could
then see a half-written line.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Tuple


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + fsync + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def append_jsonl_line(path: str, record: Dict[str, Any]) -> None:
    """Append one JSON record to a JSONL file, atomically.

    The existing content is read back, the new line appended, and the
    whole file rewritten via :func:`atomic_write_text` — an interrupted
    append can never leave a partial trailing line.
    """
    line = json.dumps(record, sort_keys=True, default=str)
    existing = ""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            existing = fh.read()
    if existing and not existing.endswith("\n"):
        existing += "\n"
    atomic_write_text(path, existing + line + "\n")


def read_jsonl(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Load a JSONL file defensively.

    Returns ``(records, skipped)`` where ``skipped`` counts lines that
    failed to parse (e.g. a partial line from a legacy non-atomic
    writer killed mid-append).  Records keep unknown keys verbatim.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    if not os.path.exists(path):
        return records, skipped
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(payload, dict):
                records.append(payload)
            else:
                skipped += 1
    return records, skipped


def detect_torn_tail(path: str) -> Optional[str]:
    """The torn trailing fragment of a JSONL file, or ``None``.

    A writer killed mid-append (a legacy non-atomic writer, or a
    kernel dying between ``write`` and ``fsync``) leaves a partial
    final record: the last non-empty line fails to parse as JSON.
    Returns that fragment verbatim so recovery can report it; mid-file
    garbage is *not* a torn tail (it is skipped by :func:`read_jsonl`
    like any other corrupt line).
    """
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        return None
    tail = lines[-1]
    try:
        json.loads(tail)
    except json.JSONDecodeError:
        return tail
    return None


def salvage_jsonl(path: str) -> Optional[str]:
    """Drop a torn trailing fragment from a JSONL file, in place.

    Everything before the torn write survives: the file is rewritten
    atomically without the fragment (and with a normalized trailing
    newline).  Returns the dropped fragment, or ``None`` when the file
    needed no salvage.
    """
    fragment = detect_torn_tail(path)
    if fragment is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    kept = [ln for ln in text.split("\n") if ln.strip()][:-1]
    atomic_write_text(path, "".join(ln + "\n" for ln in kept))
    return fragment


def iter_temp_leftovers(directory: str) -> Iterator[str]:
    """Orphaned ``.tmp-*`` files a crashed writer may have left behind."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if name.startswith(".tmp-"):
            yield os.path.join(directory, name)


def sweep_temp_leftovers(directory: str,
                         unlink: Optional[bool] = True) -> List[str]:
    """Remove (or just list, with ``unlink=False``) orphaned tmp files."""
    leftovers = list(iter_temp_leftovers(directory))
    if unlink:
        for path in leftovers:
            try:
                os.unlink(path)
            except OSError:
                pass
    return leftovers
