"""Crash-consistent append-only session journal for papid.

The journal is the daemon's source of truth for re-homing sessions
after a worker crash: one JSON record per line, append-only, written by
the *server* process strictly after it has received (acked) a worker's
result — write-behind of acks, write-ahead of anything a client could
observe.  A client therefore never sees a count the journal cannot
reproduce, which is what makes post-recovery counts monotone: the
restored base is always a value the client was actually shown (or an
older one).

Record types (``"t"`` field):

- ``create``  — session spec admitted (written on the create ack);
- ``ack``     — last-acked snapshot: values/cycle/advanced/state after
  a successful start/read/stop;
- ``recover`` — the session was re-homed after a crash; carries the
  lost-interval entry appended to its ledger;
- ``destroy`` — session removed;
- ``drain``   — clean-shutdown marker (the journal's epilogue).

Recovery (:func:`recover_sessions`) is a pure left fold, last record
wins.  A torn final line — the crash was mid-append — is ignored, so a
journal is readable after any prefix of itself.  :meth:`Journal.append`
runs the same fold step (:func:`fold_record`) on each record it writes,
so :attr:`Journal.images` is always what a restart would recover, and
the journal's memory is bounded by the live sessions, not by the
records written.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.daemon.protocol import SessionSpec


@dataclass
class SessionImage:
    """Folded journal state for one session: what a worker needs to adopt."""

    spec: SessionSpec
    state: str = "created"          # created | running | stopped
    values: Dict[str, int] = field(default_factory=dict)
    cycle: int = 0
    advanced: int = 0
    recovered: bool = False
    lost: List[dict] = field(default_factory=list)


class Journal:
    """Append-only JSONL journal and its live fold.

    :attr:`images` holds the fold of every record appended so far, and
    :attr:`n_records` counts them; the records themselves live only in
    the file.  ``path=None`` writes no file, for the inline transport
    and property tests, where thousands of short-lived daemons would
    otherwise churn the filesystem.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.images: Dict[str, SessionImage] = {}
        self.n_records = 0
        self._fh: Optional[io.TextIOWrapper] = None
        if path is not None:
            self._fh = open(path, "a", encoding="utf-8")

    def append(self, rec: dict) -> None:
        """Append one record; the line is complete before returning."""
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()
        fold_record(self.images, rec)
        self.n_records += 1

    def sync(self) -> None:
        """Force the journal onto stable storage (drain epilogue)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    @staticmethod
    def load(path: str) -> List[dict]:
        """Read a journal file, tolerating a torn (mid-append) last line."""
        records: List[dict] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return records
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1 or not any(
                    s.strip() for s in lines[i + 1:]
                ):
                    break  # torn tail: the crash interrupted this append
                raise
        return records


def fold_record(images: Dict[str, SessionImage], rec: dict) -> None:
    """Fold one record into *images* (last record wins).

    The images copy what they keep, so they share no mutable object
    with the record or with whoever built it.
    """
    t = rec.get("t")
    sid = rec.get("sid")
    if t == "create":
        images[sid] = SessionImage(spec=SessionSpec.from_wire(rec["spec"]))
        return
    if t == "destroy":
        images.pop(sid, None)
        return
    img = images.get(sid)
    if img is None:
        return  # a record for a session created before a compaction
    if t == "ack":
        img.values = dict(rec["values"])
        img.cycle = rec["cycle"]
        img.advanced = rec["advanced"]
        img.state = rec["state"]
    elif t == "recover":
        img.recovered = True
        img.lost.append(dict(rec["lost"]))


def recover_sessions(records: List[dict]) -> Dict[str, SessionImage]:
    """Fold journal records into per-session images (last record wins)."""
    images: Dict[str, SessionImage] = {}
    for rec in records:
        fold_record(images, rec)
    return images
