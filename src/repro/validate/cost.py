"""Cost plane: the ``papi_cost`` analogue over simulated substrates.

Section 3 of the paper discusses the overhead of counter access through
each platform's native interface -- register reads are nearly free,
kernel-patch syscalls cost microseconds, vendor libraries sit between.
Every substrate publishes its model as
:class:`~repro.platforms.base.AccessCosts`; this plane *measures* each
operation's wall-cycle cost through the full PAPI stack and requires it
to equal the published model exactly on direct substrates (the library
must add zero hidden work to the hot path).

A second rung re-measures under a deterministic transient-fault profile
and checks the retry ladder's accounting: every absorbed retry must
surface in the health ledger with its backoff billed to the machine --
recovery is allowed to cost cycles, never to be invisible.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.calibrate import (
    COST_OPS,
    PROBE_SYMBOL,
    measure_access_costs,
    scoped_eventset,
)
from repro.core.library import Papi
from repro.platforms import create
from repro.validate.matrix import MatrixCell

#: start/stop cycles performed under the transient-fault profile; sized
#: so the 5% injected failure rate fires several times deterministically.
FAULT_ROUNDS = 60


def run_cost_plane(
    platforms: Sequence[str],
    seed: int = 12345,
) -> List[MatrixCell]:
    cells: List[MatrixCell] = []
    for platform in platforms:
        substrate = create(platform, seed=seed)
        papi = Papi(substrate)
        if substrate.supports_sampling_counts():
            # no direct ops to cost; the read path is the per-native
            # estimate extraction.  Measured, not modelled.
            with scoped_eventset(papi) as es:
                es.add_event(papi.event_name_to_code(PROBE_SYMBOL))
                es.start()
                substrate.machine.run_to_completion()
                es.read()
                es.stop()
                delta = substrate.real_cyc() - substrate.machine.user_cycles
            cells.append(MatrixCell(
                plane="cost", platform=platform, name="interface-total",
                status="pass", actual=delta,
                detail="sampling interface: amortized daemon cost, "
                       "measured only (no per-op model)",
            ))
            continue
        measured, n = measure_access_costs(papi)
        expected = substrate.COSTS.per_op(n)
        for op in COST_OPS:
            cells.append(MatrixCell(
                plane="cost", platform=platform, name=op,
                status="pass" if measured[op] == expected[op] else "fail",
                expected=expected[op], actual=measured[op],
                detail=f"{substrate.STYLE} interface, {n} counter(s)",
            ))
        cells.append(_fault_cost_cell(platform, seed))
    return cells


def _fault_cost_cell(platform: str, seed: int) -> MatrixCell:
    """Retry/backoff accounting under the transient fault profile.

    The injector's stream is derived from the plane seed (label
    ``fault:transient``), never equal to it: the machine and the fault
    schedule must not be able to accidentally correlate.
    """
    from repro.validate.seeds import derive_seed

    fault_seed = derive_seed(seed, "fault:transient")
    substrate = create(platform, seed=seed, inject=f"{fault_seed}:transient")
    papi = Papi(substrate)
    with scoped_eventset(papi) as es:
        es.add_event(papi.event_name_to_code(PROBE_SYMBOL))
        for _ in range(FAULT_ROUNDS):
            es.start()
            es.read()
            es.stop()
        retries = es.health.retries
        backoff = es.health.backoff_cycles
    # the ledger must balance: absorbed retries iff billed backoff.
    consistent = (retries > 0) == (backoff > 0)
    # the injected 5% rate over 4+ gated ops per round makes zero
    # absorbed retries implausible; a silent ladder is a failure.
    exercised = retries > 0
    return MatrixCell(
        plane="cost", platform=platform, name="fault-retry",
        status="pass" if (consistent and exercised) else "fail",
        actual=backoff,
        error=None,
        detail=f"transient profile: {retries} retries billed "
               f"{backoff} backoff cycles over {FAULT_ROUNDS} rounds",
    )
