"""The PAPI library object: initialization, event queries, eventsets.

One :class:`Papi` instance corresponds to one initialized PAPI library
on one platform substrate (``PAPI_library_init`` in C terms).  It owns:

- the resolved preset table for its platform (which presets exist, and
  whether each is direct or derived -- the data behind the portability
  matrix of experiment E8);
- the native event code space (``0x4000_0000 | index``);
- the registry of live EventSets (one may run at a time, anticipating
  PAPI 3's removal of overlapping EventSets, as Section 5 describes);
- the portable timer and memory-utilization services.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import constants as C
from repro.core.errors import (
    NoSuchEventError,
    NoSuchEventSetError,
    PapiError,
)
from repro.core.resilience import DEFAULT_RETRY_POLICY, RetryPolicy, scrub
from repro.core.presets import (
    PRESETS,
    PresetMapping,
    platform_preset_map,
    preset_from_code,
)
from repro.platforms.base import NativeEvent, Substrate
from repro.simos.thread import Thread
from repro.simos.vmem import MemoryInfo


@dataclass(frozen=True)
class EventInfo:
    """PAPI_get_event_info: everything known about one event code."""

    code: int
    symbol: str
    description: str
    is_preset: bool
    available: bool
    kind: str                       # "direct" | "derived" | "native" | "-"
    native_terms: Tuple[Tuple[str, int], ...]


class Papi:
    """An initialized PAPI library bound to one platform substrate."""

    #: specification version, mirroring PAPI_VER_CURRENT at paper time.
    VERSION = (2, 3, 4)

    def __init__(self, substrate: Substrate) -> None:
        self.substrate = substrate
        #: retry-with-backoff policy for transient substrate failures
        #: (see :mod:`repro.core.resilience`); replace to tune.
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        #: opt-in graceful degradation: when counter-loss recovery finds
        #: re-allocation infeasible, finish the run multiplexed instead
        #: of raising PAPI_ECLOST.  Off by default -- multiplexed counts
        #: are estimates, and the library never trades exactness away
        #: silently.
        self.degrade_to_multiplex = False
        self._initialize()

    def _initialize(self) -> None:
        """(Re)build the per-library state: tables, registry, handles."""
        substrate = self.substrate
        self.preset_map: Dict[str, PresetMapping] = platform_preset_map(
            substrate.NAME
        )
        self._native_names: List[str] = sorted(substrate.native_events)
        self._native_code_by_name: Dict[str, int] = {
            name: C.PAPI_NATIVE_MASK | i
            for i, name in enumerate(self._native_names)
        }
        # non-CPU component namespaces: cid -> sorted short names.  The
        # CPU component (cid 0) is the legacy native code space above, so
        # unqualified names and `cpu:::NAME` resolve to identical codes.
        self._component_event_names: Dict[int, Tuple[str, ...]] = {
            comp.cid: comp.event_names()
            for comp in substrate.components
            if comp.cid != C.PAPI_CPU_COMPONENT
        }
        self._eventsets: Dict[int, "EventSet"] = {}
        self._next_handle = 1
        self._running_handle: Optional[int] = None
        self.initialized = True

    def init(self) -> None:
        """PAPI_library_init after PAPI_shutdown: cold-restart the library.

        Rebuilds every piece of per-library state (preset tables, native
        code space, EventSet registry, handle allocator) so the instance
        behaves exactly like a freshly constructed one.  Idempotent on an
        already-initialized library (matching ``PAPI_library_init``
        returning the current version when called twice).  The daemon's
        worker-respawn path depends on this: a respawned worker re-uses
        the process and must get a genuinely fresh library.
        """
        if self.initialized:
            return
        self._initialize()

    # ------------------------------------------------------------------
    # event namespace
    # ------------------------------------------------------------------

    def event_name_to_code(self, name: str) -> int:
        """Resolve a preset symbol, native name, or ``comp:::EVENT``."""
        if C.PAPI_COMPONENT_SEPARATOR in name:
            comp_name, short = name.split(C.PAPI_COMPONENT_SEPARATOR, 1)
            comp = self.substrate.component(comp_name)
            if comp.cid == C.PAPI_CPU_COMPONENT:
                # cpu:::NAME is an alias for the legacy native code, so
                # qualified CPU events are trivially bit-exact.
                code = self._native_code_by_name.get(short)
                if code is None:
                    raise NoSuchEventError(
                        f"{name!r} on {self.substrate.NAME}"
                    )
                return code
            comp.query(short)  # raises NoSuchEventError for bad shorts
            index = self._component_event_names[comp.cid].index(short)
            return (C.PAPI_NATIVE_MASK
                    | (comp.cid << C.PAPI_COMPONENT_SHIFT)
                    | index)
        if name.startswith("PAPI_"):
            from repro.core.presets import preset_from_symbol

            return preset_from_symbol(name).code
        code = self._native_code_by_name.get(name)
        if code is None:
            raise NoSuchEventError(f"{name!r} on {self.substrate.NAME}")
        return code

    def event_code_to_name(self, code: int) -> str:
        if C.is_preset(code):
            return preset_from_code(code).symbol
        if C.is_native(code):
            cid = C.component_id(code)
            idx = C.native_index(code)
            if cid != C.PAPI_CPU_COMPONENT:
                names = self._component_event_names.get(cid)
                if names is not None and 0 <= idx < len(names):
                    comp = self.substrate.component_by_id(cid)
                    return (f"{comp.name}{C.PAPI_COMPONENT_SEPARATOR}"
                            f"{names[idx]}")
            elif 0 <= idx < len(self._native_names):
                return self._native_names[idx]
        raise NoSuchEventError(f"bad event code 0x{code:08x}")

    def query_event(self, code: int) -> bool:
        """PAPI_query_event: can this event be counted on this platform?"""
        if C.is_preset(code):
            preset = preset_from_code(code)
            return preset.symbol in self.preset_map
        if C.is_native(code):
            cid = C.component_id(code)
            if cid != C.PAPI_CPU_COMPONENT:
                names = self._component_event_names.get(cid)
                return (names is not None
                        and 0 <= C.native_index(code) < len(names))
            return 0 <= C.native_index(code) < len(self._native_names)
        return False

    def query_named(self, name: str) -> bool:
        """Name-level availability check (``PAPI_query_named_event``)."""
        try:
            self.event_name_to_code(name)
        except PapiError:
            return False
        return True

    def resolve_terms(self, code: int) -> Tuple[Tuple[NativeEvent, int], ...]:
        """Event code -> ((native event, coefficient), ...) for this platform."""
        if C.is_native(code) and C.component_id(code) != C.PAPI_CPU_COMPONENT:
            raise NoSuchEventError(
                f"{self.event_code_to_name(code)} is a component event; "
                "it has no CPU native-term decomposition"
            )
        if C.is_preset(code):
            preset = preset_from_code(code)
            mapping = self.preset_map.get(preset.symbol)
            if mapping is None:
                raise NoSuchEventError(
                    f"{preset.symbol} is not available on {self.substrate.NAME}"
                )
            return tuple(
                (self.substrate.query_native(name), coeff)
                for name, coeff in mapping.terms
            )
        if C.is_native(code):
            name = self.event_code_to_name(code)
            return ((self.substrate.query_native(name), 1),)
        raise NoSuchEventError(f"bad event code 0x{code:08x}")

    def event_info(self, code: int) -> EventInfo:
        if C.is_preset(code):
            preset = preset_from_code(code)
            mapping = self.preset_map.get(preset.symbol)
            if mapping is None:
                return EventInfo(
                    code, preset.symbol, preset.description,
                    True, False, "-", (),
                )
            return EventInfo(
                code, preset.symbol, preset.description,
                True, True, mapping.kind, mapping.terms,
            )
        if C.is_native(code) and C.component_id(code) != C.PAPI_CPU_COMPONENT:
            name = self.event_code_to_name(code)
            comp = self.substrate.component_by_id(C.component_id(code))
            short = name.split(C.PAPI_COMPONENT_SEPARATOR, 1)[1]
            return EventInfo(
                code, name, comp.query(short).description,
                False, True, "component", (),
            )
        name = self.event_code_to_name(code)
        native = self.substrate.query_native(name)
        return EventInfo(
            code, name, native.description, False, True, "native",
            ((name, 1),),
        )

    def list_presets(self, available_only: bool = False) -> List[EventInfo]:
        """Catalogue walk (PAPI_enum_event over presets)."""
        out = []
        for preset in PRESETS:
            info = self.event_info(preset.code)
            if info.available or not available_only:
                out.append(info)
        return out

    def list_native_codes(self) -> List[int]:
        return [self._native_code_by_name[n] for n in self._native_names]

    # ------------------------------------------------------------------
    # components (PAPI-C enumeration)
    # ------------------------------------------------------------------

    def num_components(self) -> int:
        """PAPI_num_components: registered counter planes (cpu included)."""
        return self.substrate.num_components

    @property
    def components(self) -> Tuple["object", ...]:
        return self.substrate.components

    def component(self, name: str):
        """Component by name; raises ``PAPI_ENOCMP`` when unregistered."""
        return self.substrate.component(name)

    def component_by_id(self, cid: int):
        return self.substrate.component_by_id(cid)

    def component_event_codes(self, name: str) -> List[int]:
        """All event codes of one component, in enumeration order."""
        comp = self.substrate.component(name)
        sep = C.PAPI_COMPONENT_SEPARATOR
        return [
            self.event_name_to_code(f"{comp.name}{sep}{short}")
            for short in comp.event_names()
        ]

    def availability_summary(self) -> Dict[str, str]:
        """Preset symbol -> 'direct' | 'derived' | '-' (for E8)."""
        out = {}
        for preset in PRESETS:
            mapping = self.preset_map.get(preset.symbol)
            out[preset.symbol] = mapping.kind if mapping else "-"
        return out

    # ------------------------------------------------------------------
    # eventsets
    # ------------------------------------------------------------------

    def create_eventset(self) -> "EventSet":
        from repro.core.eventset import EventSet  # cycle-free late import

        if not self.initialized:
            # shutdown() followed by create: cold-restart transparently,
            # the way PAPI_library_init may be called again after
            # PAPI_shutdown.  All prior handles are gone by definition.
            self.init()
        handle = self._next_handle
        self._next_handle += 1
        es = EventSet(self, handle)
        self._eventsets[handle] = es
        return es

    def eventset(self, handle: int) -> "EventSet":
        try:
            return self._eventsets[handle]
        except KeyError:
            raise NoSuchEventSetError(f"handle {handle}") from None

    def destroy_eventset(self, es: "EventSet") -> None:
        from repro.core.errors import IsRunningError

        if es.running:
            raise IsRunningError("stop the eventset before destroying it")
        self._eventsets.pop(es.handle, None)

    def _acquire_counters(self, es: "EventSet") -> None:
        from repro.core.errors import IsRunningError

        if self._eventsets.get(es.handle) is not es:
            # a handle from before a shutdown()/init() cold restart:
            # it must not grab the new life's counters
            raise NoSuchEventSetError(
                f"handle {es.handle} belongs to a previous library life"
            )
        if self._running_handle is not None and self._running_handle != es.handle:
            raise IsRunningError(
                "another EventSet is already running (overlapping EventSets "
                "are not supported, anticipating their removal in PAPI 3)"
            )
        self._running_handle = es.handle

    def _release_counters(self, es: "EventSet") -> None:
        if self._running_handle == es.handle:
            self._running_handle = None

    @property
    def num_counters(self) -> int:
        """PAPI_num_counters: physical counters on this platform."""
        return self.substrate.n_counters

    # ------------------------------------------------------------------
    # timers (the paper's "most popular feature")
    # ------------------------------------------------------------------

    def get_real_cyc(self) -> int:
        return self.substrate.real_cyc()

    def get_real_usec(self) -> float:
        return self.substrate.real_usec()

    def get_virt_cyc(self, thread: Optional[Thread] = None) -> int:
        return self.substrate.virt_cyc(thread)

    def get_virt_usec(self, thread: Optional[Thread] = None) -> float:
        return self.substrate.virt_usec(thread)

    # ------------------------------------------------------------------
    # memory utilization (the PAPI 3 extension, Section 5)
    # ------------------------------------------------------------------

    def get_dmem_info(self, thread: Optional[Thread] = None) -> MemoryInfo:
        from repro.core.memory import dmem_info

        return dmem_info(self, thread)

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """PAPI_shutdown: stop anything running and drop all eventsets.

        Idempotent and tolerant of misbehaving clients: still-running
        EventSets are stopped (falling back to the emergency teardown if
        a clean stop fails), their counters released, and a second call
        finds nothing left to do instead of assuming clean behaviour.

        After the per-EventSet teardown the raw scrub sweeps every
        physical counter of every CPU: a set's own teardown scrubs only
        the counters it can name, and :meth:`init` relies on a quiesced
        PMU for a clean cold restart.
        """
        for es in list(self._eventsets.values()):
            if es.running:
                try:
                    es.stop()
                except PapiError:
                    es._emergency_stop()
        scrub(
            (cpu.pmu, idx)
            for cpu in self.substrate.machine.cpus
            for idx in range(self.substrate.n_counters)
        )
        self._eventsets.clear()
        self._running_handle = None
        self.initialized = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Papi v{'.'.join(map(str, self.VERSION))} on "
            f"{self.substrate.NAME}, {len(self._eventsets)} eventsets>"
        )
