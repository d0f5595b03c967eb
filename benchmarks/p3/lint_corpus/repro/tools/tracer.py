"""A Vampir-style event tracer.

Section 3: "To study the spatial and temporal aspects of performance
data, event tracing ... is more appropriate.  Event [tracing] usually
results in a log of the events that characterize the execution" and, on
the Vampir integration: "Collecting PAPI data for various events over
intervals of time and displaying this data alongside the Vampir timeline
view enables correlation of various event frequencies with message
passing behavior."

The tracer records timestamped ENTER/EXIT records (from dynaprof probes)
and periodic COUNTER records (PAPI event deltas), per thread; traces
from multiple threads merge by timestamp, and export to a simple
line-oriented format in the spirit of ALOG/SDDF.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO

from repro.core.errors import InvalidArgumentError
from repro.core.library import Papi
from repro.tools.dynaprof import Dynaprof, Probe


class TraceKind(enum.Enum):
    ENTER = "ENTER"
    EXIT = "EXIT"
    COUNTER = "COUNTER"
    MARKER = "MARKER"


@dataclass(frozen=True)
class TraceRecord:
    """One trace log entry."""

    t_cycles: int
    tid: int
    kind: TraceKind
    name: str
    values: tuple = ()

    def to_line(self) -> str:
        vals = " ".join(str(v) for v in self.values)
        return f"{self.t_cycles} {self.tid} {self.kind.value} {self.name} {vals}".rstrip()

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if len(parts) < 4:
            raise InvalidArgumentError(f"bad trace line: {line!r}")
        return cls(
            t_cycles=int(parts[0]),
            tid=int(parts[1]),
            kind=TraceKind(parts[2]),
            name=parts[3],
            values=tuple(int(v) for v in parts[4:]),
        )


class Trace:
    """An ordered log of trace records."""

    def __init__(self, records: Optional[List[TraceRecord]] = None) -> None:
        self.records: List[TraceRecord] = list(records or [])

    def add(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def sorted(self) -> "Trace":
        return Trace(sorted(self.records, key=lambda r: (r.t_cycles, r.tid)))

    def by_kind(self, kind: TraceKind) -> List[TraceRecord]:
        return [r for r in self.records if r.kind is kind]

    def functions_seen(self) -> List[str]:
        seen: List[str] = []
        for r in self.records:
            if r.kind is TraceKind.ENTER and r.name not in seen:
                seen.append(r.name)
        return seen

    # -- merge / export (the "merged and converted" pipeline) ----------------

    @staticmethod
    def merge(traces: Sequence["Trace"]) -> "Trace":
        merged: List[TraceRecord] = []
        for t in traces:
            merged.extend(t.records)
        return Trace(sorted(merged, key=lambda r: (r.t_cycles, r.tid)))

    def export(self, fh: TextIO) -> int:
        """Write the native line format; returns record count."""
        for r in self.sorted().records:
            fh.write(r.to_line() + "\n")
        return len(self.records)

    def convert(self, fh: TextIO, fmt: str) -> int:
        """Convert to a third-party trace format (Section 3's pipeline:
        "merged and converted to ALOG, SDDF, Paraver, or Vampir trace
        formats").  Simplified but structurally faithful renderings:

        - ``alog``: fixed-field integer records (event type, process,
          timestamp), with a string table appended;
        - ``sddf``: self-describing named-field records;
        - ``paraver``: colon-separated state records (``1:`` prefix)
          with enter/exit folded into state intervals.
        """
        records = self.sorted().records
        if fmt == "alog":
            names = {}
            n = 0
            for r in records:
                if r.name not in names:
                    names[r.name] = len(names)
                etype = {"ENTER": -101, "EXIT": -102,
                         "COUNTER": -103, "MARKER": -104}[r.kind.value]
                fh.write(
                    f"{etype} {r.tid} 0 {names[r.name]} 0 {r.t_cycles} "
                    + " ".join(str(v) for v in r.values) + "\n"
                )
                n += 1
            for name, idx in names.items():
                fh.write(f"-9 0 0 {idx} 0 0 {name}\n")
            return n
        if fmt == "sddf":
            fh.write('#1: "TraceRecord" {\n'
                     '  int timestamp; int thread; char kind[];\n'
                     '  char name[]; int values[];\n};;\n')
            for r in records:
                vals = ", ".join(str(v) for v in r.values)
                fh.write(
                    f'"TraceRecord" {{ {r.t_cycles}, {r.tid}, '
                    f'"{r.kind.value}", "{r.name}", [{vals}] }};;\n'
                )
            return len(records)
        if fmt == "paraver":
            # fold ENTER/EXIT pairs into Paraver state records:
            # 1:cpu:appl:task:thread:begin:end:state
            open_frames: Dict[int, List[TraceRecord]] = {}
            states = {}
            n = 0
            for r in records:
                if r.kind is TraceKind.ENTER:
                    open_frames.setdefault(r.tid, []).append(r)
                elif r.kind is TraceKind.EXIT:
                    frames = open_frames.get(r.tid)
                    if frames:
                        entry = frames.pop()
                        sid = states.setdefault(entry.name, len(states) + 1)
                        fh.write(
                            f"1:1:1:{r.tid}:1:{entry.t_cycles}:"
                            f"{r.t_cycles}:{sid}\n"
                        )
                        n += 1
            for name, sid in states.items():
                fh.write(f"# state {sid} = {name}\n")
            return n
        raise InvalidArgumentError(
            f"unknown trace format {fmt!r}; known: alog, sddf, paraver"
        )

    @classmethod
    def parse(cls, fh: TextIO) -> "Trace":
        records = [
            TraceRecord.from_line(line)
            for line in fh
            if line.strip() and not line.startswith("#")
        ]
        return cls(records)

    # -- simple timeline analysis ----------------------------------------

    def region_durations(self) -> Dict[str, int]:
        """Total cycles spent inside each function (flat, from the log)."""
        stack: Dict[int, List[TraceRecord]] = {}
        totals: Dict[str, int] = {}
        for r in self.sorted().records:
            if r.kind is TraceKind.ENTER:
                stack.setdefault(r.tid, []).append(r)
            elif r.kind is TraceKind.EXIT:
                frames = stack.get(r.tid)
                if frames:
                    entry = frames.pop()
                    totals[entry.name] = (
                        totals.get(entry.name, 0) + r.t_cycles - entry.t_cycles
                    )
        return totals


class TracerProbe(Probe):
    """Dynaprof probe emitting ENTER/EXIT (+ optional counter) records."""

    def __init__(self, papi: Papi, trace: Trace, tid: int = 0,
                 events: Sequence[str] = ()) -> None:
        self.papi = papi
        self.trace = trace
        self.tid = tid
        self.event_names = list(events)
        self.eventset = None

    def prepare(self, dynaprof: Dynaprof) -> None:
        if self.event_names:
            es = self.papi.create_eventset()
            for name in self.event_names:
                es.add_event(self.papi.event_name_to_code(name))
            self.eventset = es

    def _counter_values(self) -> tuple:
        if self.eventset is None:
            return ()
        if not self.eventset.running:
            self.eventset.start()
        return tuple(self.eventset.read())

    def on_entry(self, function: str, cpu) -> None:
        self.trace.add(
            TraceRecord(
                t_cycles=self.papi.get_real_cyc(),
                tid=self.tid,
                kind=TraceKind.ENTER,
                name=function,
                values=self._counter_values(),
            )
        )

    def on_exit(self, function: str, cpu) -> None:
        self.trace.add(
            TraceRecord(
                t_cycles=self.papi.get_real_cyc(),
                tid=self.tid,
                kind=TraceKind.EXIT,
                name=function,
                values=self._counter_values(),
            )
        )

    def finish(self) -> None:
        if self.eventset is not None and self.eventset.running:
            self.eventset.stop()
