"""The PAPI high-level interface.

"The high level interface simply provides the ability to start, stop,
and read the counters for a specified list of events, and is intended
for the acquisition of simple but accurate measurements by application
engineers."  (Section 1)

Also here: ``PAPI_flops`` -- "an easy-to-use routine that provides
timing data and the floating point operation count for the code
bracketed by calls to the routine" -- and its siblings ``flips`` and
``ipc``.  Note the normalization story (Section 4): the high-level rate
calls use the *normalized* ``PAPI_FP_OPS`` preset (whose per-platform
mapping multiplies FMA by two and subtracts miscellaneous instructions
like simPOWER's precision converts), while the low-level interface
"does not attempt any normalization or calibration of counter data but
simply reports the counts given by the hardware".  Experiment E6 shows
the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.core.errors import IsRunningError, NotRunningError
from repro.core.presets import preset_from_symbol

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.eventset import EventSet
    from repro.core.library import Papi

EventSpec = Union[int, str]


@dataclass(frozen=True)
class RateReport:
    """Return value of flops()/flips()/ipc()."""

    real_time: float       #: seconds of wall time since the first call
    proc_time: float       #: seconds of process (virtual) time
    count: int             #: event count since the first call
    rate: float            #: count per second of process time (e.g. FLOPS)

    @property
    def mrate(self) -> float:
        """Rate in millions per second (MFLOPS for flops())."""
        return self.rate / 1e6


class _RateState:
    def __init__(self, eventset: "EventSet", start_real: float,
                 start_virt: float) -> None:
        self.eventset = eventset
        self.start_real = start_real
        self.start_virt = start_virt
        self.accum = 0


class HighLevel:
    """High-level counter interface bound to one :class:`Papi` library."""

    def __init__(self, papi: "Papi") -> None:
        self.papi = papi
        self._es: Optional["EventSet"] = None
        self._flops: Optional[_RateState] = None
        self._flips: Optional[_RateState] = None
        self._ipc: Optional[_RateState] = None

    # ------------------------------------------------------------------

    def _codes(self, events: Sequence[EventSpec]) -> List[int]:
        codes = []
        for ev in events:
            codes.append(
                self.papi.event_name_to_code(ev) if isinstance(ev, str) else ev
            )
        return codes

    def num_counters(self) -> int:
        """PAPI_num_counters (also serves as the HL availability check)."""
        return self.papi.num_counters

    def start_counters(self, events: Sequence[EventSpec]) -> None:
        """PAPI_start_counters (PAPI_EISRUN when already started)."""
        if self._es is not None:
            raise IsRunningError(
                "high-level counters already started; stop them first"
            )
        es = self.papi.create_eventset()
        try:
            for code in self._codes(events):
                es.add_event(code)
            es.start()  # papi-lint: disable=PL008 -- stopped by stop_counters()
        except Exception:
            self.papi.destroy_eventset(es)
            raise
        self._es = es

    def read_counters(self) -> List[int]:
        """PAPI_read_counters: read AND reset (the C semantics)."""
        if self._es is None:
            raise NotRunningError("high-level counters are not started")
        values = self._es.read()
        self._es.reset()
        return values

    def accum_counters(self, values: List[int]) -> List[int]:
        """PAPI_accum_counters: add into *values* and reset."""
        if self._es is None:
            raise NotRunningError("high-level counters are not started")
        return self._es.accum(values)

    def stop_counters(self) -> List[int]:
        """PAPI_stop_counters: final values, then tear down."""
        if self._es is None:
            raise NotRunningError("high-level counters are not started")
        values = self._es.stop()
        self.papi.destroy_eventset(self._es)
        self._es = None
        return values

    # ------------------------------------------------------------------
    # rate calls
    # ------------------------------------------------------------------

    def _rate_call(self, state_attr: str, symbol: str) -> RateReport:
        state: Optional[_RateState] = getattr(self, state_attr)
        if state is None:
            es = self.papi.create_eventset()
            es.add_event(preset_from_symbol(symbol).code)
            es.start()  # papi-lint: disable=PL008 -- runs until the final rate call
            state = _RateState(
                es,
                self.papi.get_real_usec(),
                self.papi.get_virt_usec(),
            )
            setattr(self, state_attr, state)
            return RateReport(0.0, 0.0, 0, 0.0)
        values = state.eventset.read()
        count = values[0]
        real = (self.papi.get_real_usec() - state.start_real) / 1e6
        proc = (self.papi.get_virt_usec() - state.start_virt) / 1e6
        rate = count / proc if proc > 0 else 0.0
        return RateReport(real, proc, count, rate)

    def flops(self) -> RateReport:
        """PAPI_flops: normalized floating point operations and MFLOPS.

        First call arms the measurement and returns zeros; later calls
        report totals and rates since the first call.
        """
        return self._rate_call("_flops", "PAPI_FP_OPS")

    def flips(self) -> RateReport:
        """PAPI_flips: raw floating point *instructions* and MFLIPS."""
        return self._rate_call("_flips", "PAPI_FP_INS")

    def ipc(self) -> RateReport:
        """PAPI_ipc-style call: instructions and instructions/second.

        (The cycles-per-instruction ratio can be derived by also timing
        with the cycle clock; ``rate`` here is instructions per second.)
        """
        return self._rate_call("_ipc", "PAPI_TOT_INS")

    def stop_rates(self) -> None:
        """Tear down any armed rate measurements."""
        for attr in ("_flops", "_flips", "_ipc"):
            state: Optional[_RateState] = getattr(self, attr)
            if state is not None:
                if state.eventset.running:
                    state.eventset.stop()
                self.papi.destroy_eventset(state.eventset)
                setattr(self, attr, None)
