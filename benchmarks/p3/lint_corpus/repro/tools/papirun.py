"""papirun: run a program and report timing + counters.

Section 5: "a papirun utility that will allow users to execute a program
and easily collect basic timing and hardware counter data is under
development."  Here it is: give it a platform and a workload, get the
classic one-screen summary.

With ``inject='seed:profile'`` the run executes under deterministic
fault injection (:mod:`repro.faults`): the same spec reproduces the same
fault schedule, recovery actions and final counts on every invocation,
and the report gains a fault/health section showing what the runtime
absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.report import Table
from repro.core.library import Papi
from repro.hw.isa import Program
from repro.platforms import create
from repro.platforms.base import Substrate
from repro.workloads.builder import Workload

#: the default event list papirun attempts; unavailable presets are
#: silently skipped (exactly what a convenience tool should do).
DEFAULT_EVENTS = [
    "PAPI_TOT_CYC",
    "PAPI_TOT_INS",
    "PAPI_FP_OPS",
    "PAPI_L1_DCM",
    "PAPI_BR_MSP",
]


@dataclass
class PapirunResult:
    """Everything papirun reports for one run."""

    platform: str
    program: str
    real_usec: float
    virt_usec: float
    values: Dict[str, int]
    skipped_events: List[str]
    multiplexed: bool
    #: the fault-injection spec the run executed under (None = clean).
    inject: Optional[str] = None
    #: injected-fault counts by kind (empty when clean or fault-free).
    fault_summary: Dict[str, int] = field(default_factory=dict)
    #: the EventSet's health ledger (see EventSetHealth.summary()).
    health: Dict[str, object] = field(default_factory=dict)

    @property
    def ipc(self) -> Optional[float]:
        cyc = self.values.get("PAPI_TOT_CYC")
        ins = self.values.get("PAPI_TOT_INS")
        if not cyc or ins is None:
            return None
        return ins / cyc

    @property
    def mflops(self) -> Optional[float]:
        ops = self.values.get("PAPI_FP_OPS")
        if ops is None or self.virt_usec <= 0:
            return None
        return ops / self.virt_usec

    @property
    def lost_intervals(self) -> List[Dict[str, object]]:
        """Unobserved counting windows the runtime recovered around."""
        return list(self.health.get("lost_intervals", []))

    def to_text(self) -> str:
        table = Table(
            ["metric", "value"],
            title=f"papirun: {self.program} on {self.platform}",
        )
        table.add_row("real time (usec)", round(self.real_usec, 2))
        table.add_row("virtual time (usec)", round(self.virt_usec, 2))
        for name, value in self.values.items():
            table.add_row(name, value)
        if self.ipc is not None:
            table.add_row("IPC", round(self.ipc, 3))
        if self.mflops is not None:
            table.add_row("MFLOPS", round(self.mflops, 2))
        if self.skipped_events:
            table.add_row("(unavailable)", ", ".join(self.skipped_events))
        if self.multiplexed:
            table.add_row("(note)", "counters were multiplexed")
        if self.inject is not None:
            table.add_row("fault injection", self.inject)
            injected = ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.fault_summary.items())
            ) or "none"
            table.add_row("faults injected", injected)
            table.add_row("retries", self.health.get("retries", 0))
            intervals = self.lost_intervals
            table.add_row("lost intervals", len(intervals))
            for iv in intervals:
                table.add_row(
                    "  lost",
                    f"cycles {iv['start_cycle']}..{iv['end_cycle']} "
                    f"({'recovered' if iv['recovered'] else 'NOT recovered'})",
                )
            if self.health.get("overflow_emulated"):
                table.add_row("(degraded)", "overflow emulated in software")
            if self.health.get("degraded_to_multiplex"):
                table.add_row("(degraded)", "fell back to multiplexing")
        return table.render()


def papirun(
    platform: Union[str, Substrate],
    target: Union[Workload, Program],
    events: Optional[Sequence[str]] = None,
    multiplex: bool = False,
    inject: Optional[str] = None,
) -> PapirunResult:
    """Execute *target* on *platform* and collect timing + counters.

    *inject* is a ``seed:profile`` fault-injection spec; identical specs
    reproduce identical fault schedules and results.  Passing a
    ready-made :class:`Substrate` together with *inject* attaches the
    injector to it directly.
    """
    substrate = (
        create(platform, inject=inject)
        if isinstance(platform, str)
        else platform
    )
    injector = None
    if inject is not None and not isinstance(platform, str):
        from repro.faults import attach_from_spec

        injector = attach_from_spec(substrate, inject)
    elif substrate.faults is not None:
        injector = substrate.faults
    papi = Papi(substrate)
    papi.degrade_to_multiplex = True  # a convenience tool prefers
    # degraded numbers plus a health record over an aborted run.
    program = target.program if isinstance(target, Workload) else target
    requested = list(events) if events is not None else list(DEFAULT_EVENTS)

    es = papi.create_eventset()
    if multiplex:
        es.set_multiplex()
    accepted: List[str] = []
    skipped: List[str] = []
    for name in requested:
        try:
            es.add_event(papi.event_name_to_code(name))
            accepted.append(name)
        except Exception:
            skipped.append(name)

    substrate.machine.load(program)
    t0_real = papi.get_real_usec()
    t0_virt = papi.get_virt_usec()
    es.start()
    substrate.machine.run_to_completion()
    values = es.stop()
    real = papi.get_real_usec() - t0_real
    virt = papi.get_virt_usec() - t0_virt
    health = es.health.summary()
    was_multiplexed = es.multiplexed
    papi.destroy_eventset(es)

    return PapirunResult(
        platform=substrate.NAME,
        program=program.name,
        real_usec=real,
        virt_usec=virt,
        values=dict(zip(accepted, values)),
        skipped_events=skipped,
        multiplexed=was_multiplexed,
        inject=injector.plan.spec if injector is not None else None,
        fault_summary=injector.summary() if injector is not None else {},
        health=health,
    )
