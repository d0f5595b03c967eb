"""dynaprof: dynamic instrumentation with PAPI and wallclock probes.

"The dynaprof tool uses dynamic instrumentation to allow the user to
either load an executable or attach to a running executable and then
dynamically insert instrumentation probes ... The user can list the
internal structure of the application in order to select instrumentation
points ... Dynaprof provides a PAPI probe for collecting hardware
counter data and a wallclock probe for measuring elapsed time, both on a
per-thread basis.  Users may optionally write their own probes."
(Section 2)

Dyninst's binary rewriting becomes VM program rewriting here: PROBE
pseudo-instructions are inserted at function entries and before every
RET/HALT, control flow is relinked automatically (labels are symbolic),
and -- for the attach case -- the paused machine is *migrated* onto the
rewritten program with its pc and call stack remapped.

Probe reads go through the real substrate interface, so instrumentation
dilates the measured program exactly as the paper discusses (and as
experiments E1/E7 quantify).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import InvalidArgumentError
from repro.core.library import Papi
from repro.hw.cpu import CPU
from repro.hw.isa import Instruction, Op, Program
from repro.platforms.base import Substrate
from repro.workloads.builder import Workload


@dataclass
class FunctionProfile:
    """Accumulated per-function metrics (inclusive and exclusive)."""

    name: str
    calls: int = 0
    inclusive: Dict[str, float] = field(default_factory=dict)
    exclusive: Dict[str, float] = field(default_factory=dict)

    def _add(self, target: Dict[str, float], deltas: Dict[str, float]) -> None:
        for k, v in deltas.items():
            target[k] = target.get(k, 0) + v

    def record(self, inclusive: Dict[str, float],
               exclusive: Dict[str, float]) -> None:
        self.calls += 1
        self._add(self.inclusive, inclusive)
        self._add(self.exclusive, exclusive)


class Probe:
    """Base probe: subclass and override the hooks you need.

    "A probe may use whatever output format is appropriate, for example
    a real-time data feed to a visualization tool or a static data file
    dumped to disk at the end of the run."
    """

    def prepare(self, dynaprof: "Dynaprof") -> None:
        """Called once before instrumentation runs."""

    def on_entry(self, function: str, cpu: CPU) -> None:
        """Called when control enters an instrumented function."""

    def on_exit(self, function: str, cpu: CPU) -> None:
        """Called just before an instrumented function returns/halts."""

    def finish(self) -> None:
        """Called after the run completes."""


class _MetricProbe(Probe):
    """Shared machinery: metric snapshots -> inclusive/exclusive profiles."""

    def __init__(self) -> None:
        self.profiles: Dict[str, FunctionProfile] = {}
        self._stack: List[Tuple[str, Dict[str, float], Dict[str, float]]] = []

    def _snapshot(self) -> Dict[str, float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_entry(self, function: str, cpu: CPU) -> None:
        self._stack.append((function, self._snapshot(), {}))

    def on_exit(self, function: str, cpu: CPU) -> None:
        if not self._stack:
            return  # exit without matching entry (partial instrumentation)
        now = self._snapshot()
        name, entry, children = self._stack.pop()
        if name != function:
            # mismatched nesting can occur when only some functions are
            # instrumented; attribute to the popped frame regardless.
            pass
        inclusive = {k: now[k] - entry[k] for k in now}
        exclusive = {k: inclusive[k] - children.get(k, 0) for k in inclusive}
        prof = self.profiles.setdefault(name, FunctionProfile(name))
        prof.record(inclusive, exclusive)
        if self._stack:
            _pname, _pentry, pchildren = self._stack[-1]
            for k, v in inclusive.items():
                pchildren[k] = pchildren.get(k, 0) + v


class PapiProbe(_MetricProbe):
    """Hardware-counter probe: per-function deltas of PAPI events."""

    def __init__(self, papi: Papi, events: Sequence[str]) -> None:
        super().__init__()
        if not events:
            raise InvalidArgumentError("PapiProbe needs at least one event")
        self.papi = papi
        self.event_names = list(events)
        self.eventset = None

    def prepare(self, dynaprof: "Dynaprof") -> None:
        es = self.papi.create_eventset()
        for name in self.event_names:
            es.add_event(self.papi.event_name_to_code(name))
        self.eventset = es

    def start(self) -> None:
        assert self.eventset is not None
        self.eventset.start()

    def _snapshot(self) -> Dict[str, float]:
        assert self.eventset is not None
        values = self.eventset.read()
        return dict(zip(self.event_names, values))

    def finish(self) -> None:
        if self.eventset is not None and self.eventset.running:
            self.eventset.stop()


class WallclockProbe(_MetricProbe):
    """Elapsed-time probe: per-function real-time deltas (cycles + usec)."""

    def __init__(self, papi: Papi) -> None:
        super().__init__()
        self.papi = papi

    def _snapshot(self) -> Dict[str, float]:
        return {
            "real_cyc": float(self.papi.get_real_cyc()),
            "real_usec": self.papi.get_real_usec(),
        }


class UserProbe(Probe):
    """Wrap user callables: ``UserProbe(entry=fn, exit=fn)``."""

    def __init__(
        self,
        entry: Optional[Callable[[str, CPU], None]] = None,
        exit: Optional[Callable[[str, CPU], None]] = None,
    ) -> None:
        self._entry = entry
        self._exit = exit

    def on_entry(self, function: str, cpu: CPU) -> None:
        if self._entry is not None:
            self._entry(function, cpu)

    def on_exit(self, function: str, cpu: CPU) -> None:
        if self._exit is not None:
            self._exit(function, cpu)


class Dynaprof:
    """The instrumentor: load or attach, list structure, insert probes."""

    #: probe-id space: entry ids are even, exit ids odd.
    _ENTRY, _EXIT = 0, 1

    def __init__(self, substrate: Substrate, papi: Optional[Papi] = None) -> None:
        self.substrate = substrate
        self.machine = substrate.machine
        self.papi = papi or Papi(substrate)
        self.probes: List[Probe] = []
        self._program: Optional[Program] = None
        self._instrumented = False
        self._next_probe_id = 1
        self._probe_functions: Dict[int, Tuple[str, int]] = {}

    # ------------------------------------------------------------------

    def load(self, target: Union[Workload, Program]) -> None:
        """Load an executable (resets the machine's program state)."""
        program = target.program if isinstance(target, Workload) else target
        self._program = program
        self.machine.load(program)
        self._instrumented = False

    def attach(self) -> None:
        """Attach to whatever the machine is currently (pausedly) running."""
        if self.machine.cpu.program is None:
            raise InvalidArgumentError("no program is loaded on the machine")
        self._program = self.machine.cpu.program
        self._instrumented = False

    def list_functions(self) -> List[Tuple[str, int]]:
        """The application's internal structure: (name, size) pairs."""
        if self._program is None:
            raise InvalidArgumentError("load or attach first")
        return [
            (fn.name, fn.size)
            for fn in sorted(
                self._program.functions.values(), key=lambda f: f.start
            )
        ]

    def add_probe(self, probe: Probe) -> Probe:
        self.probes.append(probe)
        probe.prepare(self)
        return probe

    # ------------------------------------------------------------------

    def instrument(self, functions: Optional[Sequence[str]] = None) -> None:
        """Insert entry/exit probes into the selected functions.

        If the machine has already started executing the program (the
        attach case), the live context is migrated onto the rewritten
        code; otherwise the rewritten program is (re)loaded.
        """
        if self._program is None:
            raise InvalidArgumentError("load or attach first")
        if self._instrumented:
            raise InvalidArgumentError("already instrumented")
        table = self._program.functions
        if functions is None:
            selected = list(table.values())
        else:
            missing = [f for f in functions if f not in table]
            if missing:
                raise InvalidArgumentError(f"unknown functions: {missing}")
            selected = [table[f] for f in functions]

        insertions: Dict[int, List[Instruction]] = {}
        instructions = self._program.instructions
        for fn in selected:
            entry_id = self._alloc_probe(fn.name, self._ENTRY)
            insertions.setdefault(fn.start, []).append(
                Instruction(Op.PROBE, entry_id)
            )
            exit_id = self._alloc_probe(fn.name, self._EXIT)
            for pc in range(fn.start, fn.end):
                if instructions[pc].op in (Op.RET, Op.HALT):
                    insertions.setdefault(pc, []).append(
                        Instruction(Op.PROBE, exit_id)
                    )

        new_program, remap = self._program.insert(insertions)
        cpu = self.machine.cpu
        started = (
            cpu.program is self._program
            and not cpu.halted
            and cpu.pc != self._program.label_at(self._program.entry)
        )
        if started:
            cpu.migrate(new_program, remap)
        else:
            self.machine.load(new_program)
        self._program = new_program
        self._register_handlers()
        self._instrumented = True

    def remove_probes(self) -> None:
        """Deinstrument: strip every inserted probe, mid-run if needed.

        The exact inverse of :meth:`instrument`.  A started machine is
        migrated onto the stripped code (pc and return addresses
        remapped; a pc paused at a probe resumes at the instruction the
        probe guarded).  Unregistering the handlers invalidates every
        CPU's compiled code, so regions that specialized on the old
        probe registry can never run against the stripped program.
        """
        if self._program is None:
            raise InvalidArgumentError("load or attach first")
        if not self._instrumented:
            raise InvalidArgumentError("not instrumented")
        probe_pcs = [
            pc
            for pc, ins in enumerate(self._program.instructions)
            if ins.op == Op.PROBE and ins.a in self._probe_functions
        ]
        new_program, remap = self._program.remove(probe_pcs)
        cpu = self.machine.cpu
        started = (
            cpu.program is self._program
            and not cpu.halted
            and cpu.pc != self._program.label_at(self._program.entry)
        )
        if started:
            cpu.migrate(new_program, remap)
        else:
            self.machine.load(new_program)
        self._program = new_program
        for pid in self._probe_functions:
            self.machine.unregister_probe(pid)
        self._probe_functions.clear()
        self._instrumented = False

    def _alloc_probe(self, function: str, kind: int) -> int:
        pid = self._next_probe_id
        self._next_probe_id += 1
        self._probe_functions[pid] = (function, kind)
        return pid

    def _register_handlers(self) -> None:
        for pid, (function, kind) in self._probe_functions.items():
            if kind == self._ENTRY:
                def handler(_pid, cpu, _fn=function):
                    for probe in self.probes:
                        probe.on_entry(_fn, cpu)
            else:
                def handler(_pid, cpu, _fn=function):
                    for probe in self.probes:
                        probe.on_exit(_fn, cpu)
            try:
                self.machine.register_probe(pid, handler)
            except ValueError:
                self.machine.unregister_probe(pid)
                self.machine.register_probe(pid, handler)

    # ------------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None):
        """Run (or continue) the instrumented program.

        Starts any PapiProbe eventsets first, stops them at the end.
        """
        for probe in self.probes:
            if isinstance(probe, PapiProbe) and probe.eventset is not None:
                if not probe.eventset.running:
                    probe.start()
        if max_instructions is None:
            result = self.machine.run_to_completion()
        else:
            result = self.machine.run(max_instructions=max_instructions)
        if result.halted:
            for probe in self.probes:
                probe.finish()
        return result

    def profiles(self) -> Dict[str, FunctionProfile]:
        """Merged per-function profiles from all metric probes."""
        merged: Dict[str, FunctionProfile] = {}
        for probe in self.probes:
            if isinstance(probe, _MetricProbe):
                for name, prof in probe.profiles.items():
                    tgt = merged.setdefault(name, FunctionProfile(name))
                    tgt.calls = max(tgt.calls, prof.calls)
                    tgt._add(tgt.inclusive, prof.inclusive)
                    tgt._add(tgt.exclusive, prof.exclusive)
        return merged
