"""perfometer: real-time performance monitoring (Figure 2).

"By connecting the frontend graphical display ... to the backend process
running an application code that has been linked with the perfometer and
PAPI libraries, the tool provides a runtime trace of a user-selected
PAPI metric ... for floating point operations per second (FLOPS).  The
user may change the performance event being measured by clicking on the
Select Metric button ... the perfometer backend code can save a trace
file for later off-line analysis."  (Section 2)

The Java front-end becomes :func:`render` (ASCII, via
:mod:`repro.analysis.report`); the backend, the metric feed, the
select-metric switch and the trace file are all real.  The dynaprof
integration ("attach to and monitor in real-time without ... restarting
the application") works because the backend only needs the machine to
run in slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.report import ascii_plot
from repro.core.errors import InvalidArgumentError
from repro.core.library import Papi
from repro.platforms.base import Substrate


@dataclass(frozen=True)
class TracePoint:
    """One sample of the selected metric's rate."""

    t_usec: float          #: wall time at the end of the interval
    metric: str            #: which metric was selected at the time
    count: int             #: events in this interval
    rate: float            #: events per second over the interval


@dataclass
class PerfometerTrace:
    """The trace file: a list of points plus run metadata."""

    platform: str
    points: List[TracePoint] = field(default_factory=list)

    def rates(self, metric: Optional[str] = None) -> List[float]:
        return [
            p.rate for p in self.points if metric is None or p.metric == metric
        ]

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "platform": self.platform,
                    "points": [vars(p) for p in self.points],
                },
                f,
                indent=1,
            )

    @classmethod
    def load(cls, path: str) -> "PerfometerTrace":
        with open(path) as f:
            raw = json.load(f)
        trace = cls(platform=raw["platform"])
        for p in raw["points"]:
            trace.points.append(TracePoint(**p))
        return trace


class PerfometerProbe:
    """The dynaprof perfometer probe (Section 2).

    "The Dynaprof tool ... includes a perfometer probe that can
    automatically insert calls to the perfometer setup and color
    selection routines so that a running application can be attached to
    and monitored in real-time without requiring any source code changes
    or recompilation or even restarting the application."

    Instead of fixed time slices, this probe emits one
    :class:`TracePoint` per instrumented *function call*: the selected
    metric's count and rate over that call's duration.  Add it to a
    :class:`~repro.tools.dynaprof.Dynaprof` like any other probe.
    """

    def __init__(self, papi: Papi, metric: str = "PAPI_FP_OPS",
                 trace: Optional[PerfometerTrace] = None) -> None:
        self.papi = papi
        self.metric = metric
        self.trace = trace or PerfometerTrace(
            platform=papi.substrate.NAME
        )
        self.eventset = None
        self._stack: List[tuple] = []

    # dynaprof Probe protocol ------------------------------------------------

    def prepare(self, dynaprof) -> None:
        es = self.papi.create_eventset()
        es.add_event(self.papi.event_name_to_code(self.metric))
        self.eventset = es

    def _reading(self):
        assert self.eventset is not None
        if not self.eventset.running:
            self.eventset.start()
        return self.eventset.read()[0], self.papi.get_real_usec()

    def on_entry(self, function: str, cpu) -> None:
        self._stack.append((function, *self._reading()))

    def on_exit(self, function: str, cpu) -> None:
        if not self._stack:
            return
        _name, count0, t0 = self._stack.pop()
        count1, t1 = self._reading()
        dt = (t1 - t0) / 1e6
        delta = count1 - count0
        self.trace.points.append(
            TracePoint(
                t_usec=t1,
                metric=self.metric,
                count=delta,
                rate=delta / dt if dt > 0 else 0.0,
            )
        )

    def finish(self) -> None:
        if self.eventset is not None and self.eventset.running:
            self.eventset.stop()


class Perfometer:
    """The backend: samples a selected PAPI metric while the app runs."""

    def __init__(
        self,
        substrate: Substrate,
        papi: Optional[Papi] = None,
        metric: str = "PAPI_FP_OPS",
        interval_cycles: int = 20_000,
    ) -> None:
        if interval_cycles < 100:
            raise InvalidArgumentError("interval too fine to be meaningful")
        self.substrate = substrate
        self.machine = substrate.machine
        self.papi = papi or Papi(substrate)
        self.interval_cycles = interval_cycles
        self.metric = metric
        self.trace = PerfometerTrace(platform=substrate.NAME)
        self._es = None

    # ------------------------------------------------------------------

    def select_metric(self, metric: str) -> None:
        """The Select Metric button: switch what is being measured.

        Takes effect immediately: the current eventset is torn down and
        a new one armed for the new metric.
        """
        if not self.papi.query_event(self.papi.event_name_to_code(metric)):
            raise InvalidArgumentError(
                f"{metric} is not available on {self.substrate.NAME}"
            )
        if self._es is not None:
            self._teardown()
        self.metric = metric

    def _arm(self) -> None:
        es = self.papi.create_eventset()
        es.add_event(self.papi.event_name_to_code(self.metric))
        es.start()  # papi-lint: disable=PL008 -- stopped in _teardown()
        self._es = es

    def _teardown(self) -> None:
        if self._es is not None:
            if self._es.running:
                self._es.stop()
            self.papi.destroy_eventset(self._es)
            self._es = None

    # ------------------------------------------------------------------

    def monitor(self, max_intervals: Optional[int] = None) -> PerfometerTrace:
        """Run the loaded application to completion, sampling per interval.

        Can be called on a freshly loaded machine *or* mid-run (the
        dynaprof attach scenario): it just continues from the current
        machine state.
        """
        if self.machine.cpu.program is None:
            raise InvalidArgumentError("no application loaded on the machine")
        intervals = 0
        while not self.machine.cpu.halted:
            if max_intervals is not None and intervals >= max_intervals:
                break
            if self._es is None:
                self._arm()
            t0 = self.papi.get_real_usec()
            self.machine.run(max_cycles=self.interval_cycles)
            t1 = self.papi.get_real_usec()
            count = self._es.read()[0]
            self._es.reset()
            dt = (t1 - t0) / 1e6
            self.trace.points.append(
                TracePoint(
                    t_usec=t1,
                    metric=self.metric,
                    count=count,
                    rate=count / dt if dt > 0 else 0.0,
                )
            )
            intervals += 1
        self._teardown()
        return self.trace

    # ------------------------------------------------------------------

    def render(self, metric: Optional[str] = None, width: int = 64,
               height: int = 8) -> str:
        """The "front-end": an ASCII rate-vs-time plot of the trace."""
        metric = metric or self.metric
        rates = self.trace.rates(metric)
        label = f"perfometer [{self.substrate.NAME}] {metric} per second"
        return ascii_plot(rates, height=height, width=width, label=label)
