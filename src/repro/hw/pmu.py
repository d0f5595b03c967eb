"""The performance monitoring unit of the simulated machine.

The PMU owns a small, platform-dependent number of *physical counter
registers*.  Each register can be programmed with a set of event signals
(see :mod:`repro.hw.events`) whose occurrences it accumulates while
started.  This is the scarce resource that drives the paper's counter
allocation problem (Section 5) and the motivation for software
multiplexing (Section 2).

Beyond plain counting, the PMU models the three hardware profiling
mechanisms the paper compares (Section 4):

- **overflow interrupts** with out-of-order *skid*: when a counter crosses
  its threshold, the interrupt is delivered several instructions late on
  out-of-order platforms, so the reported program counter may fall in a
  different basic block than the causing instruction;
- a **ProfileMe-style sampler** (Alpha DCPI): periodically selects an
  in-flight instruction at random and records its state -- pc, opcode
  class, cache-miss flags, incurred latency -- with *precise* attribution;
- **Event Address Registers** (Itanium EARs): record the exact instruction
  and data address of sampled cache-miss events.

The CPU drives the PMU through a handful of hot-path hooks
(:meth:`PMU.check_overflow`, :meth:`PMU.check_timer`, countdown-based
sampling); everything else is control-plane and can afford normal Python
costs.

Every interrupt -- a ProfileMe sample, an overflow delivered on the CPU
or drained at a migration, a cycle-timer tick -- is delivered and billed
in one place, :meth:`PMU._deliver`: it calls the handlers, then adds the
interrupts to ``HW_INT`` in the counts array the PMU shares with its CPU.
Samples and overflows also cost ``interrupt_cost`` cycles each, which
delay the measured program (the overhead the paper's sampling numbers
include); timer ticks cost none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.hw.events import Signal, signal_name


class PMUError(Exception):
    """Raised for invalid PMU programming (bad counter index, conflicts)."""


@dataclass(frozen=True)
class PMUConfig:
    """Per-platform PMU capabilities."""

    n_counters: int = 4
    #: maximum overflow-interrupt skid, in retired instructions.  0 models
    #: an in-order machine or precise interrupt hardware; larger values
    #: model deep out-of-order windows.
    skid_max: int = 0
    #: whether the ProfileMe-style instruction sampler exists.
    has_profileme: bool = False
    #: whether event address registers exist.
    has_ear: bool = False
    #: cycles charged for delivering one overflow/sampling interrupt.
    interrupt_cost: int = 120

    def __post_init__(self) -> None:
        if self.n_counters < 1:
            raise ValueError("a PMU needs at least one counter")
        if self.skid_max < 0:
            raise ValueError("skid cannot be negative")
        if self.interrupt_cost < 0:
            raise ValueError("interrupt cost cannot be negative")


@dataclass
class CounterControl:
    """Control state of one physical counter register."""

    index: int
    signals: Tuple[int, ...] = ()
    running: bool = False
    #: accumulated value while paused plus completed run intervals.
    accum: int = 0
    #: snapshot of the signal totals at the moment the counter last started.
    armed: Tuple[int, ...] = ()

    def describe(self) -> str:
        names = "+".join(signal_name(s) for s in self.signals) or "<idle>"
        state = "run" if self.running else "stop"
        return f"ctr{self.index}[{names}:{state}]={self.accum}"


@dataclass(frozen=True)
class CounterSnapshot:
    """Frozen state of one counter, carried across a CPU migration.

    ``watch`` preserves an armed overflow watch as ``(threshold,
    headroom, handler, overflow_count)`` where *headroom* is how far the
    counter sat below its next trigger at export time -- re-arming as
    ``value + headroom`` on the destination PMU preserves partial
    progress toward the next interrupt exactly, the same invariant a
    stop/start pair preserves on one CPU.
    """

    signals: Tuple[int, ...]
    value: int
    watch: Optional[Tuple[int, int, Callable, int]] = None


@dataclass(frozen=True)
class OverflowRecord:
    """Delivered to overflow handlers.

    ``trigger_pc`` is the instruction that actually crossed the threshold;
    ``reported_pc`` is what the interrupt hardware reports after skid --
    profiling tools only ever see ``reported_pc`` (the paper's attribution
    accuracy problem is exactly the gap between the two).
    """

    counter: int
    trigger_pc: int
    reported_pc: int
    cycle: int
    threshold: int
    overflow_count: int


@dataclass(frozen=True)
class SampleRecord:
    """One ProfileMe sample: precise state of a random in-flight instruction."""

    pc: int
    opcode: int
    cycle: int
    is_load: bool
    is_store: bool
    is_fp: bool
    is_branch: bool
    br_mispred: bool
    l1d_miss: bool
    l2_miss: bool
    tlb_miss: bool
    latency: int


@dataclass(frozen=True)
class EARRecord:
    """One event-address-register capture: exact pc + data address of a miss."""

    pc: int
    data_addr: int
    cycle: int
    event: str  # "l1d_miss" or "tlb_miss"


@dataclass
class _OverflowWatch:
    counter: int
    signals: Tuple[int, ...]
    threshold: int
    next_trigger: int
    handler: Callable[[OverflowRecord], None]
    overflow_count: int = 0


@dataclass
class _PendingDelivery:
    watch: _OverflowWatch
    trigger_pc: int
    remaining_skid: int


#: one interrupt delivery: ``(handler, argument, interrupts billed)``.
_Delivery = Tuple[Callable, object, int]


class ProfileMeSampler:
    """Periodic random-instruction sampler (DCPI/ProfileMe style).

    The CPU decrements a countdown per retired instruction; when it hits
    zero the *current* instruction is recorded precisely.  The next period
    is jittered uniformly in ``[period/2, 3*period/2]`` to avoid aliasing
    with loop bodies, mirroring DCPI's randomized sampling.
    """

    def __init__(self, period: int, rng: random.Random) -> None:
        if period < 2:
            raise PMUError("sampling period must be >= 2")
        self.period = period
        self._rng = rng
        self.samples: List[SampleRecord] = []
        self.n_samples = 0

    def next_countdown(self) -> int:
        half = self.period // 2
        return self._rng.randint(max(1, self.period - half), self.period + half)

    def record(self, sample: SampleRecord) -> None:
        self.samples.append(sample)
        self.n_samples += 1

    def drain(self) -> List[SampleRecord]:
        out = self.samples
        self.samples = []
        return out


class EventAddressRegister:
    """Samples every Nth miss event with exact instruction/data addresses."""

    def __init__(self, period: int, event: str) -> None:
        if period < 1:
            raise PMUError("EAR period must be >= 1")
        self.period = period
        self.event = event
        self._countdown = period
        self.records: List[EARRecord] = []
        self.n_records = 0

    def tick(self, pc: int, data_addr: int, cycle: int) -> bool:
        """Called once per miss; returns True when a record was captured."""
        self._countdown -= 1
        if self._countdown > 0:
            return False
        self._countdown = self.period
        self.records.append(EARRecord(pc, data_addr, cycle, self.event))
        self.n_records += 1
        return True

    def drain(self) -> List[EARRecord]:
        out = self.records
        self.records = []
        return out


class PMU:
    """Physical counters + overflow + sampling hardware.

    The PMU reads event totals out of the CPU's signal-counts array (shared
    by reference); a counter's value is
    ``accum + sum(counts[s] - armed[s] for its signals)`` while running.
    """

    def __init__(self, config: PMUConfig, counts: List[int], seed: int = 12345) -> None:
        self.config = config
        self._counts = counts
        self.counters: List[CounterControl] = [
            CounterControl(i) for i in range(config.n_counters)
        ]
        self._rng = random.Random(seed)
        # overflow machinery
        self._watches: Dict[int, _OverflowWatch] = {}
        self._pending: List[_PendingDelivery] = []
        self.watch_active = False  # fast-path flag read by the CPU
        # cycle timer (used by software multiplexing / the simulated OS)
        self._timer_period = 0
        self._timer_next = 0
        self._timer_handler: Optional[Callable[[int], None]] = None
        self.timer_active = False
        # sampling hardware
        self.sampler: Optional[ProfileMeSampler] = None
        self.sample_countdown = 0  # decremented inline by the CPU
        self.ears: List[EventAddressRegister] = []
        self.ear_active = False
        #: fault-injection hook consulted when a pending overflow
        #: delivery becomes due: returns ``None`` (deliver), ``"drop"``
        #: (discard the interrupt) or an ``int`` of extra skid
        #: instructions.  ``None`` (the default) is the clean path.
        self.delivery_gate: Optional[Callable[[int], object]] = None
        #: fault-injection hook perturbing each cycle-timer period by a
        #: signed offset (multiplex-timer jitter).  ``None`` = exact.
        self.timer_jitter: Optional[Callable[[int], int]] = None
        #: invoked whenever asynchronous machinery is armed (overflow
        #: watch, cycle timer, sampler, EAR).  The execution engine
        #: installs :meth:`BlockEngine.unbind` here so a compiled region
        #: whose probe handler arms instrumentation side-exits at the
        #: next probe: the region's probe guard only has to test
        #: ``engine._table is None`` instead of four PMU flags per
        #: dispatch.  ``None`` when no engine is attached.
        self.unquiet_hook: Optional[Callable[[], None]] = None

    def _notify_unquiet(self) -> None:
        hook = self.unquiet_hook
        if hook is not None:
            hook()

    # ------------------------------------------------------------------
    # counter control
    # ------------------------------------------------------------------

    def _counter(self, index: int) -> CounterControl:
        if not 0 <= index < self.config.n_counters:
            raise PMUError(
                f"counter index {index} out of range "
                f"(PMU has {self.config.n_counters})"
            )
        return self.counters[index]

    def program(self, index: int, signals: Sequence[int]) -> None:
        """Program counter *index* to count the sum of *signals*."""
        ctr = self._counter(index)
        if ctr.running:
            raise PMUError(f"counter {index} is running; stop it first")
        for s in signals:
            signal_name(s)  # validates
        ctr.signals = tuple(signals)
        ctr.accum = 0
        ctr.armed = ()

    def clear(self, index: int) -> None:
        ctr = self._counter(index)
        if ctr.running:
            raise PMUError(f"counter {index} is running; stop it first")
        if index in self._watches:
            self.clear_overflow(index)
        ctr.signals = ()
        ctr.accum = 0
        ctr.armed = ()

    def _live_delta(self, ctr: CounterControl) -> int:
        counts = self._counts
        total = 0
        for s, base in zip(ctr.signals, ctr.armed):
            total += counts[s] - base
        return total

    def start(self, index: int) -> None:
        ctr = self._counter(index)
        if not ctr.signals:
            raise PMUError(f"counter {index} is not programmed")
        if ctr.running:
            raise PMUError(f"counter {index} is already running")
        counts = self._counts
        ctr.armed = tuple(counts[s] for s in ctr.signals)
        ctr.running = True
        # NOTE: the overflow baseline is intentionally *not* refreshed here:
        # a stop/start pair (e.g. a context switch descheduling the owning
        # thread) must preserve partial progress toward the next overflow.

    def _accumulate(self, ctr: CounterControl) -> None:
        """Stop *ctr* if it runs, folding its live delta into ``accum``."""
        if ctr.running:
            ctr.accum += self._live_delta(ctr)
            ctr.running = False
            ctr.armed = ()

    def stop(self, index: int) -> int:
        """Stop counting; returns the final value."""
        ctr = self._counter(index)
        self._accumulate(ctr)
        return ctr.accum

    def read(self, index: int) -> int:
        """The counter's current value."""
        ctr = self._counter(index)
        if ctr.running:
            return ctr.accum + self._live_delta(ctr)
        return ctr.accum

    #: the same read for the per-instruction overflow checks, which stay
    #: off ``read`` so that a profiler wrapping it sees control-plane
    #: reads only.
    _read = read

    def write(self, index: int, value: int) -> None:
        """Set the counter value (PAPI reset writes 0)."""
        ctr = self._counter(index)
        ctr.accum = int(value)
        if ctr.running:
            counts = self._counts
            ctr.armed = tuple(counts[s] for s in ctr.signals)
        self._refresh_watch_baseline(index)

    def running(self, index: int) -> bool:
        return self._counter(index).running

    # ------------------------------------------------------------------
    # migration (per-thread counters moving between per-CPU PMUs)
    # ------------------------------------------------------------------

    def export_counter(self, index: int) -> CounterSnapshot:
        """Freeze counter *index* for migration and free the register.

        The counter is stopped (accumulating its live delta), any armed
        overflow watch is packed with its remaining headroom, and any
        interrupt still in its skid window is delivered immediately --
        the migration IPI drains the source CPU's interrupt queue, so an
        already-crossed threshold is never lost.  A drained delivery
        reports its trigger pc and is billed like any other
        (:meth:`_deliver`), to this PMU's CPU.
        """
        ctr = self._counter(index)
        self._accumulate(ctr)
        watch_state = None
        watch = self._watches.get(index)
        if watch is not None:
            headroom = watch.next_trigger - ctr.accum
            drained = [p for p in self._pending if p.watch.counter == index]
            self._deliver(
                (self._fire(p, p.trigger_pc, self._counts[Signal.TOT_CYC])
                 for p in drained),
                self.config.interrupt_cost,
            )
            watch_state = (watch.threshold, headroom, watch.handler,
                           watch.overflow_count)
            self.clear_overflow(index)
        snap = CounterSnapshot(signals=ctr.signals, value=ctr.accum,
                               watch=watch_state)
        ctr.signals = ()
        ctr.accum = 0
        ctr.armed = ()
        return snap

    def import_counter(self, index: int, snap: CounterSnapshot) -> None:
        """Install a migrated counter (left stopped; caller restarts)."""
        ctr = self._counter(index)
        if ctr.running:
            raise PMUError(
                f"counter {index} is running; cannot import into it"
            )
        ctr.signals = snap.signals
        ctr.accum = snap.value
        ctr.armed = ()
        if snap.watch is not None:
            threshold, headroom, handler, count = snap.watch
            self._watches[index] = _OverflowWatch(
                counter=index,
                signals=ctr.signals,
                threshold=threshold,
                next_trigger=snap.value + headroom,
                handler=handler,
                overflow_count=count,
            )
            self.watch_active = True
            self._notify_unquiet()

    # ------------------------------------------------------------------
    # overflow interrupts
    # ------------------------------------------------------------------

    def set_overflow(
        self,
        index: int,
        threshold: int,
        handler: Callable[[OverflowRecord], None],
    ) -> None:
        """Raise an interrupt each time counter *index* advances *threshold*."""
        ctr = self._counter(index)
        if threshold < 1:
            raise PMUError("overflow threshold must be >= 1")
        if not ctr.signals:
            raise PMUError(f"counter {index} is not programmed")
        watch = _OverflowWatch(
            counter=index,
            signals=ctr.signals,
            threshold=threshold,
            next_trigger=self.read(index) + threshold,
            handler=handler,
        )
        self._watches[index] = watch
        self.watch_active = True
        self._notify_unquiet()

    def clear_overflow(self, index: int) -> None:
        self._watches.pop(index, None)
        self._pending = [p for p in self._pending if p.watch.counter != index]
        self.watch_active = bool(self._watches or self._pending)

    def _refresh_watch_baseline(self, index: int) -> None:
        watch = self._watches.get(index)
        if watch is not None:
            watch.next_trigger = self.read(index) + watch.threshold

    def check_overflow(self, pc: int, cycle: int) -> None:
        """Hot-path hook called by the CPU after each retired instruction.

        Schedules a delivery, after a random skid, for each watch whose
        threshold was crossed, and delivers the pending ones whose skid
        ran out, reporting *pc*.
        """
        if self._watches:
            for watch in self._watches.values():
                value = self._read(watch.counter)
                if value >= watch.next_trigger:
                    # schedule delivery; catch up if multiple thresholds
                    # were crossed at once (possible with multi-signal
                    # events or externally charged cycles).
                    while value >= watch.next_trigger:
                        watch.next_trigger += watch.threshold
                    skid = (
                        self._rng.randint(0, self.config.skid_max)
                        if self.config.skid_max
                        else 0
                    )
                    self._pending.append(_PendingDelivery(watch, pc, skid))
        if self._pending:
            self._deliver(self._due(pc, cycle), self.config.interrupt_cost)

    def _due(self, pc: int, cycle: int) -> Iterator[_Delivery]:
        """Yield the on-CPU deliveries whose skid ran out (a generator).

        Each is offered to the fault injector's ``delivery_gate`` first,
        after the previous delivery's handler ran: the gate may drop it
        or give it more skid.
        """
        still_pending: List[_PendingDelivery] = []
        for p in self._pending:
            if p.remaining_skid > 0:
                p.remaining_skid -= 1
                still_pending.append(p)
                continue
            if self.delivery_gate is not None:
                verdict = self.delivery_gate(p.watch.counter)
                if verdict == "drop":
                    continue
                if isinstance(verdict, int) and verdict > 0:
                    p.remaining_skid = verdict
                    still_pending.append(p)
                    continue
            yield self._fire(p, pc, cycle)
        self._pending = still_pending
        self.watch_active = bool(self._watches or self._pending)

    @staticmethod
    def _fire(p: _PendingDelivery, reported_pc: int, cycle: int) -> _Delivery:
        """One overflow delivery of *p*, as :meth:`_deliver` takes it."""
        watch = p.watch
        watch.overflow_count += 1
        return watch.handler, OverflowRecord(
            counter=watch.counter,
            trigger_pc=p.trigger_pc,
            reported_pc=reported_pc,
            cycle=cycle,
            threshold=watch.threshold,
            overflow_count=watch.overflow_count,
        ), 1

    def _deliver(self, deliveries: Iterable[_Delivery], cost: int) -> None:
        """Deliver interrupts and bill them: the one path of every
        sample, overflow and timer tick.

        Each ``(handler, argument, interrupts)`` that *deliveries* yields
        has its handler called at once.  After the last, the interrupts
        are billed to the counts array shared with the CPU: ``HW_INT``
        counts each one and ``TOT_CYC`` grows by *cost* cycles per
        interrupt.  Handlers therefore see the counts from before this
        call, and a watch on ``HW_INT`` is due from here until the next
        retire.
        """
        n = 0
        for handler, arg, interrupts in deliveries:
            handler(arg)
            n += interrupts
        if n:
            counts = self._counts
            counts[Signal.HW_INT] += n
            counts[Signal.TOT_CYC] += n * cost

    # ------------------------------------------------------------------
    # deadline queries (block-engine support)
    # ------------------------------------------------------------------

    def has_pending(self) -> bool:
        """True while overflow deliveries are in their skid window.

        Pending deliveries drain one skid step per retired instruction,
        so any bulk executor must fall back to the precise path until the
        queue is empty.
        """
        return bool(self._pending)

    def quiet(self) -> bool:
        """True when no PMU machinery can observe instruction retirement.

        The trace engine only compiles probe instructions into a region
        while the PMU is quiet: overflow watches, the cycle timer,
        ProfileMe sampling and in-flight skid deliveries all force the
        probe back onto the precise interpreter path (deadline crossings
        must be attributed at exact instruction boundaries).
        """
        return not (
            self.watch_active
            or self.timer_active
            or self.sampler is not None
            or self._pending
        )

    def watch_constraints(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(headroom, signals)`` per armed overflow watch.

        ``headroom`` is how far the watched counter sits below its next
        trigger; a bulk step may advance the watch's signals by strictly
        less than that without crossing the threshold.  Watches on
        stopped counters are omitted: their value is frozen, so no amount
        of signal traffic can cross them.
        """
        out: List[Tuple[int, Tuple[int, ...]]] = []
        for watch in self._watches.values():
            if self.counters[watch.counter].running:
                out.append(
                    (watch.next_trigger - self._read(watch.counter), watch.signals)
                )
        return out

    def cycles_to_timer(self, cycle: int) -> int:
        """Cycles until the next cycle-timer tick (undefined when off)."""
        return self._timer_next - cycle

    # ------------------------------------------------------------------
    # cycle timer
    # ------------------------------------------------------------------

    def set_cycle_timer(self, period: int, handler: Callable[[int], None]) -> None:
        """Invoke *handler(cycle)* every *period* cycles (multiplex driver)."""
        if period < 1:
            raise PMUError("timer period must be >= 1")
        self._timer_period = period
        self._timer_next = self._counts[Signal.TOT_CYC] + period
        self._timer_handler = handler
        self.timer_active = True
        self._notify_unquiet()

    def clear_cycle_timer(self) -> None:
        self._timer_handler = None
        self.timer_active = False

    def check_timer(self, cycle: int) -> None:
        """Hot-path hook: fire the timer if its period elapsed."""
        if self._timer_handler is None or cycle < self._timer_next:
            return
        ticks = 0
        while cycle >= self._timer_next:
            period = self._timer_period
            if self.timer_jitter is not None:
                period = max(1, period + self.timer_jitter(period))
            self._timer_next += period
            ticks += 1
        # call the handler once per check even if several periods elapsed
        # inside a long-latency instruction; each period is an interrupt,
        # and periods are tracked so time accounting in the handler stays
        # consistent.  Ticks cost no cycles.
        self._deliver(((self._timer_handler, cycle, ticks),), 0)

    # ------------------------------------------------------------------
    # sampling hardware
    # ------------------------------------------------------------------

    def enable_profileme(self, period: int) -> ProfileMeSampler:
        if not self.config.has_profileme:
            raise PMUError("this PMU has no ProfileMe-style sampler")
        self.sampler = ProfileMeSampler(period, self._rng)
        self.sample_countdown = self.sampler.next_countdown()
        self._notify_unquiet()
        return self.sampler

    def disable_profileme(self) -> None:
        self.sampler = None
        self.sample_countdown = 0

    def deliver_sample(self, sample: SampleRecord) -> None:
        """Record a sample (one interrupt) and re-arm the countdown."""
        sampler = self.sampler
        assert sampler is not None
        self._deliver(((sampler.record, sample, 1),), self.config.interrupt_cost)
        self.sample_countdown = sampler.next_countdown()

    def add_ear(self, period: int, event: str = "l1d_miss") -> EventAddressRegister:
        if not self.config.has_ear:
            raise PMUError("this PMU has no event address registers")
        if event not in ("l1d_miss", "tlb_miss"):
            raise PMUError(f"unsupported EAR event: {event!r}")
        ear = EventAddressRegister(period, event)
        self.ears.append(ear)
        self.ear_active = True
        self._notify_unquiet()
        return ear

    def remove_ear(self, ear: EventAddressRegister) -> None:
        self.ears.remove(ear)
        self.ear_active = bool(self.ears)

    def ear_miss(self, pc: int, data_addr: int, cycle: int, event: str) -> None:
        """Called by the CPU on each qualifying miss while EARs are active."""
        for ear in self.ears:
            if ear.event == event:
                ear.tick(pc, data_addr, cycle)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Return the PMU to power-on state (counters, watches, samplers)."""
        for ctr in self.counters:
            ctr.signals = ()
            ctr.running = False
            ctr.accum = 0
            ctr.armed = ()
        self._watches.clear()
        self._pending.clear()
        self.watch_active = False
        self.clear_cycle_timer()
        self.disable_profileme()
        self.ears.clear()
        self.ear_active = False

    def describe(self) -> str:
        return " ".join(c.describe() for c in self.counters)
