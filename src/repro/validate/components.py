"""Components plane: mixed CPU/uncore/energy EventSets vs derived truth.

The component architecture's contract is that one EventSet can mix
events from several counting domains and every domain still reads
correctly: CPU counts match the architectural oracle, uncore bandwidth
tallies match the socket's memory traffic, and the energy model's parts
sum to its package total.  Each cell here checks one clause of that
contract on one platform:

- ``mixed:PAPI_TOT_INS`` -- the CPU member of a mixed set is undisturbed
  by its component co-members (exact on direct substrates, sampling
  tolerance on simALPHA);
- ``uncore:::MEM_BW_WR`` -- write bandwidth equals ``8 * stores`` where
  the store count comes from the *independent* reference interpreter,
  not the machine (an architecturally determined oracle);
- ``energy:::CORE_ENERGY`` -- the activity-derived energy model equals
  its documented closed form over cycles and oracle instructions;
- ``energy:::PKG_ENERGY`` -- package energy is exactly core + DRAM, read
  from the same run (the merge of per-component snapshots is coherent);
- ``uncore:all-events`` -- the whole uncore event table counts at once:
  directly where the bank is wide enough, rotating within the component
  where it is not, and on the sampling substrate -- whose two-wide bank
  cannot multiplex -- by raising the documented capacity conflict.

Free-running component counters make every component-side equality
*exact* even under multiplexing and even on simALPHA; only the
sample-derived CPU member carries a tolerance.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.calibrate import (
    SAMPLING_PERIOD,
    SAMPLING_TOLERANCE,
    run_measured,
    scoped_eventset,
    within_sampling_tolerance,
)
from repro.core.errors import ConflictError, PapiError
from repro.core.library import Papi
from repro.core.sampling import relative_error
from repro.hw.events import Signal
from repro.platforms import create
from repro.validate.matrix import MatrixCell
from repro.validate.oracle import expected_signal_counts
from repro.workloads import conformance_mix

#: the mixed EventSet exercised by the first four cells.
MIXED_EVENTS = (
    "PAPI_TOT_INS",
    "uncore:::MEM_BW_WR",
    "energy:::PKG_ENERGY",
    "energy:::CORE_ENERGY",
    "energy:::DRAM_ENERGY",
)


def _cell(platform: str, name: str, expected: int, actual: int,
          exact: bool = True, detail: str = "") -> MatrixCell:
    err = relative_error(actual, expected)
    ok = (actual == expected if exact
          else within_sampling_tolerance(actual, expected))
    return MatrixCell(
        plane="components", platform=platform, name=name,
        status="pass" if ok else "fail",
        expected=expected, actual=actual, error=err, detail=detail,
    )


def _mixed_cells(platform: str, papi: Papi, workload,
                 oracle_counts) -> List[MatrixCell]:
    """Run the mixed EventSet once; score its four contract cells."""
    machine = papi.substrate.machine
    # the oracle plane's ProfileMe period; direct substrates ignore it
    papi.sampling_period = SAMPLING_PERIOD
    # availability check first: component events are only addressable on
    # substrates that register the component.
    papi.component("uncore")
    papi.component("energy")
    values = run_measured(papi, workload.program, MIXED_EVENTS)

    sampling = papi.substrate.supports_sampling_counts()
    cells = [_cell(
        platform, "mixed:PAPI_TOT_INS",
        expected=oracle_counts[Signal.TOT_INS],
        actual=values["PAPI_TOT_INS"],
        exact=not sampling,
        detail=(f"sample-derived, tolerance "
                f"{SAMPLING_TOLERANCE:.0%}" if sampling
                else "CPU member of a mixed set, exact"),
    )]
    cells.append(_cell(
        platform, "uncore:::MEM_BW_WR",
        expected=8 * oracle_counts[Signal.SR_INS],
        actual=values["uncore:::MEM_BW_WR"],
        detail="8 bytes per oracle store, exact even while sampling",
    ))
    cells.append(_cell(
        platform, "energy:::CORE_ENERGY",
        expected=(3 * machine.signal_total(Signal.TOT_CYC)
                  + 2 * oracle_counts[Signal.TOT_INS]),
        actual=values["energy:::CORE_ENERGY"],
        detail="3*cycles + 2*instructions closed form",
    ))
    cells.append(_cell(
        platform, "energy:::PKG_ENERGY",
        expected=(values["energy:::CORE_ENERGY"]
                  + values["energy:::DRAM_ENERGY"]),
        actual=values["energy:::PKG_ENERGY"],
        detail="package = core + DRAM from one merged read",
    ))
    return cells


def _uncore_bank_cell(platform: str, papi: Papi, workload,
                      oracle_counts) -> MatrixCell:
    """The whole uncore table at once: direct, rotating, or refused."""
    substrate = papi.substrate
    uncore = papi.component("uncore")
    machine = substrate.machine
    shorts = [f"uncore:::{s}" for s in uncore.event_names()]
    fits = len(shorts) <= uncore.n_counters

    if substrate.supports_sampling_counts() and not fits:
        # the sampling substrate's two-wide bank cannot hold four events
        # and (having no cycle timer for rotation) cannot multiplex:
        # the add must fail with the documented capacity conflict.
        with scoped_eventset(papi) as es:
            try:
                es.add_named(*shorts)
            except ConflictError:
                return MatrixCell(
                    plane="components", platform=platform,
                    name="uncore:all-events", status="pass",
                    detail=(f"{uncore.n_counters}-wide bank refuses "
                            f"{len(shorts)} events (no multiplexing on "
                            "a sampling substrate)"),
                )
            return MatrixCell(
                plane="components", platform=platform,
                name="uncore:all-events", status="fail",
                detail="over-capacity add was not refused",
            )

    with scoped_eventset(papi) as es:
        if not fits:
            es.set_multiplex()
        es.add_named(*shorts)
        machine.load(workload.program)
        es.start()
        machine.run_to_completion()
        values = dict(zip(es.event_names, es.stop()))
        rotations = es.mpx_rotations

    expected = 8 * oracle_counts[Signal.SR_INS]
    actual = values["uncore:::MEM_BW_WR"]
    lines_ok = (values["uncore:::UNC_L2_LINES_IN"]
                == machine.signal_total(Signal.L2_MISS))
    if not fits and rotations == 0:
        return MatrixCell(
            plane="components", platform=platform,
            name="uncore:all-events", status="fail",
            expected=expected, actual=actual,
            detail="window rotation never ticked",
        )
    mode = ("rotating within the bank" if not fits
            else "whole table fits the bank")
    return MatrixCell(
        plane="components", platform=platform, name="uncore:all-events",
        status="pass" if actual == expected and lines_ok else "fail",
        expected=expected, actual=actual,
        error=relative_error(actual, expected),
        detail=f"{mode}; free-running reads stay exact",
    )


def run_components_plane(
    platforms: Sequence[str],
    thorough: bool = False,
    seed: int = 12345,
) -> List[MatrixCell]:
    """Score the component-architecture contract on every platform."""
    n = 400 if thorough else 120
    cells: List[MatrixCell] = []
    for platform in platforms:
        substrate = create(platform, seed=seed)
        papi = Papi(substrate)
        workload = conformance_mix(n, use_fma=substrate.HAS_FMA)
        oracle_counts = expected_signal_counts(workload.program)
        try:
            cells.extend(_mixed_cells(platform, papi, workload,
                                      oracle_counts))
        except PapiError as exc:
            cells.append(MatrixCell(
                plane="components", platform=platform, name="mixed",
                status="fail", detail=f"mixed EventSet run failed: {exc}",
            ))
        # fresh machine: the bank cell's oracle assumes a cold cache.
        substrate = create(platform, seed=seed)
        papi = Papi(substrate)
        try:
            cells.append(_uncore_bank_cell(platform, papi, workload,
                                           oracle_counts))
        except PapiError as exc:
            cells.append(MatrixCell(
                plane="components", platform=platform,
                name="uncore:all-events", status="fail",
                detail=f"uncore bank run failed: {exc}",
            ))
    return cells
