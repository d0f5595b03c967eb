"""The SMP scheduler: threads, time slices, migration, counter virtualization.

This is the piece that makes PAPI's "per-thread counts" story work (the
paper's Tru64 discussion: the original aggregate interface could not do
per-thread counting; DADD added it).  Counters bound to a thread run
physically only while that thread occupies a CPU; the scheduler
pauses/resumes them around every context switch and charges a context
switch cost to the machine's system clock.

With ``MachineConfig.ncpus > 1`` the scheduler dispatches ready threads
across all CPUs round-robin, preferring each thread's last CPU (affinity
hint) and migrating when a CPU would otherwise idle.  Because every CPU
has a private PMU, a migrated thread's counters are *re-homed*: the
source PMU exports each bound counter (value, programming, overflow
watch with its remaining headroom -- see
:meth:`repro.hw.pmu.PMU.export_counter`) and the destination imports it,
so virtual counts survive any placement history exactly.  On a
single-CPU machine no migration ever happens and scheduling is bit-exact
with the historical round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.hw.cpu import RunResult
from repro.hw.isa import Program
from repro.hw.machine import Machine
from repro.simos.signals import SignalRouter
from repro.simos.thread import Thread, ThreadState
from repro.simos.vmem import MemoryAccounting, MemoryInfo


class OSError_(Exception):
    """Raised for scheduler misuse (OS-level errors)."""


@dataclass
class SchedulerStats:
    context_switches: int = 0
    slices: int = 0
    idle_dispatches: int = 0
    #: dispatches that moved a thread to a different CPU than its last.
    migrations: int = 0
    #: bound counters re-homed between per-CPU PMUs.
    counter_migrations: int = 0
    #: per-CPU slice and busy-cycle tallies (index = CPU index).
    cpu_slices: List[int] = field(default_factory=list)
    cpu_busy_cycles: List[int] = field(default_factory=list)

    @property
    def makespan_cycles(self) -> int:
        """Parallel wall-clock estimate: the busiest CPU's cycle tally.

        The simulator executes slices sequentially, so the SMP wall
        clock is reconstructed as the maximum per-CPU busy time (every
        CPU runs independently between shared-cache interactions).
        """
        return max(self.cpu_busy_cycles, default=0)


class OS:
    """Multiplexes threads onto the CPUs of one :class:`Machine`.

    Typical use::

        os_ = OS(machine, quantum_cycles=20_000)
        t1 = os_.spawn(program_a)
        t2 = os_.spawn(program_b)
        os_.run()          # until every thread halts
    """

    def __init__(
        self,
        machine: Machine,
        quantum_cycles: int = 20_000,
        ctx_switch_cost: int = 400,
        phys_pages: int = 4096,
    ) -> None:
        if quantum_cycles < 1:
            raise OSError_("quantum must be at least one cycle")
        if ctx_switch_cost < 0:
            raise OSError_("context switch cost cannot be negative")
        self.machine = machine
        self.ncpus = machine.config.ncpus
        self.quantum_cycles = quantum_cycles
        self.ctx_switch_cost = ctx_switch_cost
        self.threads: List[Thread] = []
        self.signals = SignalRouter()
        self.vmem = MemoryAccounting(
            page_bytes=machine.hierarchy.config.tlb.page_bytes,
            total_pages=phys_pages,
        )
        self.stats = SchedulerStats(
            cpu_slices=[0] * self.ncpus,
            cpu_busy_cycles=[0] * self.ncpus,
        )
        self._next_tid = 1
        self._current: Optional[Thread] = None
        self._rr_index = 0
        self._cpu_rr = 0

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------

    def spawn(
        self, program: Program, name: Optional[str] = None, heap_words: int = 0
    ) -> Thread:
        thread = Thread.create(self._next_tid, program, name=name, heap_words=heap_words)
        self._next_tid += 1
        self.threads.append(thread)
        return thread

    @property
    def current(self) -> Optional[Thread]:
        return self._current

    def thread_by_tid(self, tid: int) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise OSError_(f"no thread with tid {tid}")

    def ready_threads(self) -> List[Thread]:
        return [t for t in self.threads if t.state is ThreadState.READY]

    def all_finished(self) -> bool:
        return all(t.finished for t in self.threads)

    # ------------------------------------------------------------------
    # counter virtualization (used by the PAPI attach path)
    # ------------------------------------------------------------------

    def _pmu(self, cpu_index: int):
        return self.machine.cpus[cpu_index].pmu

    def _check_cpu(self, cpu: int) -> int:
        if not 0 <= cpu < self.ncpus:
            raise OSError_(
                f"cpu {cpu} out of range (machine has {self.ncpus})"
            )
        return cpu

    def bind_counter(self, thread: Thread, index: int,
                     cpu: int = 0) -> None:
        """Virtualize PMU counter *index* to *thread* (stopped initially).

        A counter index can be bound to at most one thread machine-wide:
        the index names the same register on every per-CPU PMU, and the
        register must be free wherever the thread may be dispatched.
        *cpu* is the counter's initial home -- the PMU whose register
        currently holds its programming (CPU 0 for the classic path).
        """
        for t in self.threads:
            if index in t.bound_counters and t is not thread:
                raise OSError_(
                    f"counter {index} is already bound to thread {t.tid}"
                )
        thread.bind_counter(index, home=self._check_cpu(cpu))

    def unbind_counter(self, thread: Thread, index: int) -> None:
        if thread.bound_counters.get(index) and thread.state is ThreadState.RUNNING:
            self._pmu(thread.counter_home[index]).stop(index)
        thread.unbind_counter(index)

    def force_release_thread_counters(self, thread: Thread) -> None:
        """Best-effort unbind of every counter bound to *thread*.

        The shutdown/emergency path: a misbehaving client (or a faulted
        run) can leave attached counters bound, and releasing them must
        never fail -- physical-stop errors are swallowed and the binding
        dropped regardless, so a second shutdown finds nothing to do.
        """
        for index in list(thread.bound_counters):
            try:
                self.unbind_counter(thread, index)
            except Exception:
                thread.unbind_counter(index)

    def counter_start(self, thread: Thread, index: int) -> None:
        """Logically start a bound counter; physical start if on CPU."""
        if index not in thread.bound_counters:
            raise OSError_(f"counter {index} is not bound to thread {thread.tid}")
        if thread.bound_counters[index]:
            raise OSError_(f"counter {index} is already started")
        thread.bound_counters[index] = True
        if thread.state is ThreadState.RUNNING:
            assert thread.cpu is not None
            self._migrate_counter(thread, index, thread.cpu)
            self._pmu(thread.cpu).start(index)

    def counter_stop(self, thread: Thread, index: int) -> int:
        if not thread.bound_counters.get(index, False):
            raise OSError_(f"counter {index} is not running for thread {thread.tid}")
        thread.bound_counters[index] = False
        home = thread.counter_home[index]
        if thread.state is ThreadState.RUNNING:
            return self._pmu(home).stop(index)
        # descheduled: the counter is already physically stopped on its
        # home PMU; its accumulated value is the thread's virtual count.
        return self._pmu(home).read(index)

    def _home_pmu(self, thread: Thread, index: int):
        """The PMU holding bound counter *index* of *thread* right now."""
        if index not in thread.bound_counters:
            raise OSError_(f"counter {index} is not bound to thread {thread.tid}")
        return self._pmu(thread.counter_home[index])

    def counter_value(self, thread: Thread, index: int) -> int:
        """Peek a bound counter's current virtual count (no state change)."""
        return self._home_pmu(thread, index).read(index)

    def counter_reset(self, thread: Thread, index: int) -> None:
        """Zero a bound counter's virtual count on its home PMU."""
        self._home_pmu(thread, index).write(index, 0)

    def _migrate_counter(self, thread: Thread, index: int,
                         dest: int) -> None:
        """Re-home one bound counter's physical state onto CPU *dest*."""
        home = thread.counter_home[index]
        if home == dest:
            return
        snap = self._pmu(home).export_counter(index)
        self._pmu(dest).import_counter(index, snap)
        thread.counter_home[index] = dest
        self.stats.counter_migrations += 1

    def _migrate_counters(self, thread: Thread, dest: int) -> None:
        for index in thread.bound_counters:
            self._migrate_counter(thread, index, dest)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _dispatch(self, thread: Thread, cpu_index: int) -> None:
        if thread.last_cpu is not None and thread.last_cpu != cpu_index:
            thread.migrations += 1
            self.stats.migrations += 1
        self._migrate_counters(thread, cpu_index)
        cpu = self.machine.cpus[cpu_index]
        cpu.restore_context(thread.context)
        self.signals.current_tid = thread.tid
        thread.state = ThreadState.RUNNING
        thread.cpu = cpu_index
        thread.dispatches += 1
        pmu = cpu.pmu
        for index, running in thread.bound_counters.items():
            if running and not pmu.running(index):
                # plain start (not import) when already home: preserves
                # partial progress toward an armed overflow threshold
                # across the descheduled gap, like real virtualization.
                pmu.start(index)

    def _deschedule(self, thread: Thread, result: RunResult) -> None:
        assert thread.cpu is not None
        cpu = self.machine.cpus[thread.cpu]
        pmu = cpu.pmu
        for index, running in thread.bound_counters.items():
            if running and pmu.running(index):
                pmu.stop(index)
        thread.context = cpu.save_context()
        thread.user_cycles += result.cycles
        thread.last_cpu = thread.cpu
        thread.cpu = None
        thread.state = (
            ThreadState.FINISHED if result.halted else ThreadState.READY
        )
        self.signals.current_tid = None
        self._current = None

    def run_slice(
        self,
        thread: Thread,
        max_cycles: Optional[int] = None,
        cpu: Optional[int] = None,
    ) -> RunResult:
        """Run one time slice of *thread* and context-switch away again.

        *cpu* pins the slice to a CPU; default is the thread's last CPU
        (CPU 0 for a never-run thread) -- the affinity hint.
        """
        if thread.state is not ThreadState.READY:
            raise OSError_(f"thread {thread.tid} is not ready ({thread.state.value})")
        cpu_index = (
            self._check_cpu(cpu) if cpu is not None
            else (thread.last_cpu if thread.last_cpu is not None else 0)
        )
        self._current = thread
        self._dispatch(thread, cpu_index)
        result = self.machine.cpus[cpu_index].run(
            max_cycles=max_cycles if max_cycles is not None else self.quantum_cycles
        )
        self._deschedule(thread, result)
        self.machine.charge(self.ctx_switch_cost, cpu=cpu_index)
        self.stats.context_switches += 1
        self.stats.slices += 1
        self.stats.cpu_slices[cpu_index] += 1
        self.stats.cpu_busy_cycles[cpu_index] += result.cycles + self.ctx_switch_cost
        self.vmem.update(self.threads)
        return result

    def _pick_thread(self, ready: List[Thread], cpu_index: int) -> Thread:
        """Round-robin with an affinity preference.

        Starting from the round-robin cursor, the first ready thread
        whose last CPU is *cpu_index* (or that never ran) wins; if every
        ready thread is affine elsewhere, the cursor's thread migrates
        rather than leaving the CPU idle.  On a single-CPU machine the
        affinity test always passes, reducing to the classic round-robin.
        """
        n = len(ready)
        start = self._rr_index % n
        self._rr_index += 1
        for off in range(n):
            t = ready[(start + off) % n]
            if t.last_cpu is None or t.last_cpu == cpu_index:
                return t
        return ready[start]

    def run(
        self,
        max_total_cycles: Optional[int] = None,
        max_slices: Optional[int] = None,
    ) -> SchedulerStats:
        """Dispatch ready threads across all CPUs until everything halts.

        CPUs take turns slice-by-slice (the simulator itself is
        sequential); thread choice per CPU is affinity-preferring
        round-robin, so with one CPU this is exactly the historical
        scheduler.
        """
        start_cycles = self.machine.real_cycles
        slices = 0
        while True:
            ready = self.ready_threads()
            if not ready:
                break
            if max_slices is not None and slices >= max_slices:
                break
            if (
                max_total_cycles is not None
                and self.machine.real_cycles - start_cycles >= max_total_cycles
            ):
                break
            cpu_index = self._cpu_rr % self.ncpus
            self._cpu_rr += 1
            thread = self._pick_thread(ready, cpu_index)
            self.run_slice(thread, cpu=cpu_index)
            slices += 1
        return self.stats

    # ------------------------------------------------------------------
    # time & memory services
    # ------------------------------------------------------------------

    def real_cycles(self) -> int:
        return self.machine.real_cycles

    def virt_cycles(self, thread: Thread) -> int:
        """Thread-virtual cycles, including the live slice if running."""
        if thread.state is ThreadState.RUNNING:
            # context was saved at dispatch time; add the live delta
            return thread.user_cycles  # updated at deschedule; see note
        return thread.user_cycles

    def memory_info(self, thread: Thread) -> MemoryInfo:
        return self.vmem.info(thread, self.threads)
