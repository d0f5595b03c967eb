"""Threads: execution contexts with virtualized counter state.

A thread owns a full architectural context (registers, pc, call stack,
its own program and memory image -- processes in Unix terms, but the
paper and PAPI both say "thread" for the unit counters are virtualized
to, so we keep that name) plus the bookkeeping the scheduler needs:
accumulated virtual time and the set of PMU counters bound to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.hw.cpu import CPUContext
from repro.hw.isa import DATA_SEGMENT_BASE, NUM_FREGS, NUM_IREGS, Program

#: bytes of address space reserved per thread (keeps threads' pages and
#: cache lines from aliasing, like distinct physical allocations).
THREAD_ADDRESS_STRIDE = 1 << 24


class ThreadState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


def _fresh_context(program: Program, heap_words: int, tid: int) -> CPUContext:
    """Build the boot-time context for *program* without touching the CPU."""
    return CPUContext(
        pc=program.label_at(program.entry),
        data_base=DATA_SEGMENT_BASE + tid * THREAD_ADDRESS_STRIDE,
        iregs=[0] * NUM_IREGS,
        fregs=[0.0] * NUM_FREGS,
        call_stack=[],
        halted=False,
        cur_iline=-1,
        code=program.resolve(),
        memory=program.initial_memory(heap_words),
        program=program,
        touched_pages=set(),
    )


@dataclass
class Thread:
    """One schedulable execution context."""

    tid: int
    name: str
    context: CPUContext
    state: ThreadState = ThreadState.READY
    #: cycles of CPU time this thread has consumed (virtual time).
    user_cycles: int = 0
    #: cycles of interface/system work billed to this thread.
    system_cycles: int = 0
    #: PMU counter indices virtualized to this thread, mapped to whether
    #: they are *logically* running (they physically run only while the
    #: thread is on a CPU).
    bound_counters: Dict[int, bool] = field(default_factory=dict)
    #: number of times this thread was dispatched.
    dispatches: int = 0
    #: peak resident set in pages, maintained by MemoryAccounting.
    hwm_pages: int = 0
    #: CPU index this thread last ran on (affinity hint; None = never ran).
    last_cpu: Optional[int] = None
    #: CPU index this thread is running on right now (None when off-CPU).
    cpu: Optional[int] = None
    #: per bound counter, the CPU index whose PMU holds its physical
    #: state (accum value, programming, armed overflow watch).  Counters
    #: are lazily migrated to the dispatch CPU; off-CPU reads route here.
    counter_home: Dict[int, int] = field(default_factory=dict)
    #: number of times this thread was dispatched on a different CPU than
    #: its previous one (cross-CPU migrations).
    migrations: int = 0

    @classmethod
    def create(
        cls, tid: int, program: Program, name: Optional[str] = None, heap_words: int = 0
    ) -> "Thread":
        return cls(
            tid=tid,
            name=name or f"{program.name}#{tid}",
            context=_fresh_context(program, heap_words, tid),
        )

    @property
    def finished(self) -> bool:
        return self.state is ThreadState.FINISHED

    @property
    def program(self) -> Program:
        assert self.context.program is not None
        return self.context.program

    def touched_pages(self) -> Set[int]:
        return self.context.touched_pages

    def bind_counter(self, index: int, home: int = 0) -> None:
        if index in self.bound_counters:
            raise ValueError(f"counter {index} already bound to thread {self.tid}")
        self.bound_counters[index] = False
        self.counter_home[index] = home

    def unbind_counter(self, index: int) -> None:
        self.bound_counters.pop(index, None)
        self.counter_home.pop(index, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Thread {self.tid} {self.name!r} {self.state.value} "
            f"vcyc={self.user_cycles}>"
        )
