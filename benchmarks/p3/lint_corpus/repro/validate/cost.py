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

from repro.core.library import Papi
from repro.platforms import create
from repro.validate.matrix import MatrixCell

#: preset used for cost probes: single-native on every platform, so the
#: per-counter arithmetic is the simplest possible.
COST_SYMBOL = "PAPI_TOT_INS"

#: start/stop cycles performed under the transient-fault profile; sized
#: so the 5% injected failure rate fires several times deterministically.
FAULT_ROUNDS = 60


def _measured_deltas(papi: Papi) -> tuple:
    """(start, read, reset, stop) wall-cycle deltas and native count."""
    substrate = papi.substrate
    es = papi.create_eventset()
    try:
        es.add_event(papi.event_name_to_code(COST_SYMBOL))
        c0 = substrate.real_cyc()
        es.start()
        c1 = substrate.real_cyc()
        es.read()
        c2 = substrate.real_cyc()
        es.reset()
        c3 = substrate.real_cyc()
        es.stop()
        c4 = substrate.real_cyc()
        n_natives = max(len(es.assignment), 1)
    finally:
        if es.running:  # an exception left the set running
            es.stop()
        papi.destroy_eventset(es)
    return (c1 - c0, c2 - c1, c3 - c2, c4 - c3), n_natives


def run_cost_plane(
    platforms: Sequence[str],
    seed: int = 12345,
) -> List[MatrixCell]:
    cells: List[MatrixCell] = []
    for platform in platforms:
        substrate = create(platform, seed=seed)
        papi = Papi(substrate)
        costs = substrate.COSTS
        if substrate.supports_sampling_counts():
            # no direct ops to cost; the read path is the per-native
            # estimate extraction.  Measured, not modelled.
            es = papi.create_eventset()
            try:
                es.add_event(papi.event_name_to_code(COST_SYMBOL))
                c0 = substrate.real_cyc()
                es.start()
                substrate.machine.run_to_completion()
                es.read()
                es.stop()
                delta = substrate.real_cyc() - substrate.machine.user_cycles
            finally:
                if es.running:  # an exception left the set running
                    es.stop()
                papi.destroy_eventset(es)
            cells.append(MatrixCell(
                plane="cost", platform=platform, name="interface-total",
                status="pass", actual=delta,
                detail="sampling interface: amortized daemon cost, "
                       "measured only (no per-op model)",
            ))
            continue
        (start, read, reset, stop), n = _measured_deltas(papi)
        expected = {
            "start": costs.program * n + costs.start,
            "read": costs.read + costs.read_per_counter * n,
            "reset": costs.reset,
            "stop": costs.stop,
        }
        measured = {"start": start, "read": read, "reset": reset,
                    "stop": stop}
        for op in ("start", "read", "reset", "stop"):
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
    es = papi.create_eventset()
    retries = backoff = 0
    try:
        es.add_event(papi.event_name_to_code(COST_SYMBOL))
        for _ in range(FAULT_ROUNDS):
            es.start()
            es.read()
            es.stop()
        retries = es.health.retries
        backoff = es.health.backoff_cycles
    finally:
        if es.running:  # an exception left the set running
            es.stop()
        papi.destroy_eventset(es)
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
