"""Crash-safe file writes for traces and run records.

Whole-file exports (traces, metrics files, bench tables) go through
:func:`atomic_write_text`: the content is written to a temporary file
in the *same directory* as the target, flushed and fsynced, then
renamed over the target with ``os.replace``.  POSIX rename is atomic,
so a reader never observes a half-written export.

JSONL files (the run store's ``records.jsonl`` and every checkpoint
journal) only grow, one record per line, and :func:`append_jsonl_line`
appends in place: one ``write`` call on a file opened for append, then
an fsync before it returns.  The one crash model is a writer killed
mid-append, which leaves at worst a torn final line.  Every record
before it survives; :func:`read_jsonl` skips the fragment,
:func:`salvage_jsonl` truncates it away, and the next append starts a
fresh line first.  Because each append is a single write at the end of
the file, appends from several processes to a file on a local file
system land whole, one after the other, and no writer of these files
leaves a temporary file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple


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
    """Append one JSON record to a JSONL file, durably.

    The line goes out in one write call on an unbuffered append handle
    and is fsynced before this returns.  When the file does not end in
    a newline (a torn final line), the write starts with one, so the
    new record never fuses with the fragment.
    """
    data = (json.dumps(record, sort_keys=True, default=str)
            + "\n").encode("utf-8")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a+b", buffering=0) as fh:
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        if fh.write(data) != len(data):
            raise OSError(f"short write appending to {path!r}")
        os.fsync(fh.fileno())


def read_jsonl(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Load a JSONL file defensively.

    Returns ``(records, skipped)`` where ``skipped`` counts lines that
    failed to parse (e.g. the final line of a writer killed
    mid-append).  Records keep unknown keys verbatim.
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


def salvage_jsonl(path: str) -> Optional[str]:
    """Truncate a torn final line off a JSONL file, in place.

    A writer killed mid-append leaves a last non-empty line that does
    not parse as JSON.  The file is read once; when its last line is
    torn, the file is truncated at that line's start and fsynced, so
    everything before the torn write survives byte for byte.  A file
    that grew since the read is left alone: a live writer has appended
    after the fragment.  Mid-file garbage is not a torn tail (it is
    skipped by :func:`read_jsonl` like any other corrupt line).

    Returns the dropped fragment, or ``None`` when nothing was dropped.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    body = data.rstrip()
    start = body.rfind(b"\n") + 1
    fragment = body[start:]
    if not fragment:
        return None
    try:
        json.loads(fragment)
        return None
    except ValueError:
        pass
    with open(path, "r+b") as fh:
        if os.fstat(fh.fileno()).st_size != len(data):
            return None
        fh.truncate(start)
        os.fsync(fh.fileno())
    return fragment.decode("utf-8", errors="replace")
