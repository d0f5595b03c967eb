"""Convergence plane: multiplex estimation error vs runtime length.

Section 2 of the paper: "Erroneous results can occur when the runtime is
insufficient to permit the estimated counter values to converge to their
expected values."  This plane makes the hazard a measured curve: five
architectural events multiplexed onto simX86's two counters, the run
length swept across doublings, each event's estimate scored against the
oracle.  The matrix commits two regressions -- at the longest duration
every event's relative error is under :data:`FINAL_ERROR_BOUND`, and the
*median* error is monotonically non-increasing across the sweep (the
"run longer, trust more" property tools rely on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.calibrate import scoped_eventset
from repro.core.library import Papi
from repro.core.sampling import relative_error
from repro.platforms import create
from repro.validate.matrix import MatrixCell
from repro.validate.oracle import expected_preset_values, expected_signal_counts
from repro.workloads import phased

#: the multiplexed EventSet: five architectural presets on two counters.
EVENTS = ["PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_LD_INS", "PAPI_SR_INS",
          "PAPI_BR_INS"]

#: platform under test; two counters makes five events genuinely contend.
PLATFORM = "simX86"

#: multiplex rotation quantum (cycles), matching experiment E3.
QUANTUM = 6000

#: per-phase iteration counts; one repeat is deliberately shorter than a
#: full rotation cycle so the shortest runs are badly estimated.
PHASES = (("fp", 1500), ("mem", 1500), ("br", 1500))

#: phase-repeat sweep (each point doubles the runtime).
DURATIONS = (1, 2, 4, 8, 16, 32)
DURATIONS_THOROUGH = (1, 2, 4, 8, 16, 32, 64)

#: regression bound: worst per-event relative error at the longest
#: duration.  The paper's "long enough run time" made concrete.
FINAL_ERROR_BOUND = 0.01


@dataclass(frozen=True)
class SweepPoint:
    """One duration's outcome: per-event errors + rotation count."""

    errors: Dict[str, float]
    rotations: int
    n_counters: int


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def measure_sweep(
    durations: Sequence[int] = DURATIONS,
    seed: int = 12345,
) -> Dict[int, "SweepPoint"]:
    """Per-duration, per-event multiplex relative error vs the oracle."""
    out: Dict[int, SweepPoint] = {}
    for repeats in durations:
        substrate = create(PLATFORM, seed=seed)
        papi = Papi(substrate)
        papi.mpx_quantum_cycles = QUANTUM
        work = phased(list(PHASES), repeats=repeats,
                      use_fma=substrate.HAS_FMA)
        counts = expected_signal_counts(work.program)
        expectations = expected_preset_values(
            PLATFORM, counts,
            {n: ev.signals for n, ev in substrate.native_events.items()},
        )
        with scoped_eventset(papi) as es:
            es.set_multiplex()
            es.add_named(*EVENTS)
            substrate.machine.load(work.program)
            es.start()
            substrate.machine.run_to_completion()
            values = dict(zip(es.event_names, es.stop()))
            rotations = es.mpx_rotations
        out[repeats] = SweepPoint(
            errors={
                symbol: relative_error(values[symbol],
                                       expectations[symbol].expected)
                for symbol in EVENTS
            },
            rotations=rotations,
            n_counters=substrate.n_counters,
        )
    return out


def run_convergence_plane(
    thorough: bool = False,
    seed: int = 12345,
) -> List[MatrixCell]:
    durations = DURATIONS_THOROUGH if thorough else DURATIONS
    sweep = measure_sweep(durations, seed=seed)
    cells: List[MatrixCell] = []
    medians = []
    for repeats in durations:
        point = sweep[repeats]
        med = _median(list(point.errors.values()))
        medians.append(med)
        cells.append(MatrixCell(
            plane="convergence", platform=PLATFORM,
            name=f"median-error@repeats={repeats}",
            status="pass", actual=med,
            detail=f"{len(EVENTS)} events on {point.n_counters} "
                   f"counters, {point.rotations} rotations",
        ))
    longest = durations[-1]
    for symbol, err in sorted(sweep[longest].errors.items()):
        cells.append(MatrixCell(
            plane="convergence", platform=PLATFORM,
            name=f"{symbol}@repeats={longest}",
            status="pass" if err < FINAL_ERROR_BOUND else "fail",
            expected=FINAL_ERROR_BOUND, actual=err, error=err,
            detail="converged estimate at longest runtime",
        ))
    # "run longer, trust more" holds until the curve converges: once
    # both neighbours sit under FINAL_ERROR_BOUND the estimates are
    # rotation-phase jitter around the true value, and demanding strict
    # ordering there would regress on noise rather than on convergence.
    monotone = all(
        b <= a or max(a, b) < FINAL_ERROR_BOUND
        for a, b in zip(medians, medians[1:])
    )
    cells.append(MatrixCell(
        plane="convergence", platform=PLATFORM, name="median-monotone",
        status="pass" if monotone else "fail",
        actual=medians[-1],
        detail="median error non-increasing until converged: "
               + " -> ".join(f"{m:.3g}" for m in medians),
    ))
    return cells
