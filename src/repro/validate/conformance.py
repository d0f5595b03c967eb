"""Oracle plane: measured counts vs analytic ground truth, per cell.

Two runners:

- :func:`run_oracle_plane` -- every preset of every platform, one
  EventSet per preset on direct substrates (exact equality required) and
  one sampling run for all checkable presets on simALPHA (statistical
  tolerance; sample-based estimates converge, they do not equal);
- :func:`run_virtualization_plane` -- the attach/SMP rung: counts
  attached to one thread while a decoy thread competes for the CPUs must
  equal the oracle counts of the attached program *alone*, on 1- and
  4-CPU machines.  Any leakage from the decoy (or loss across
  migrations) breaks the equality.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.calibrate import (
    ATTACH_NCPUS,
    PROBE_SYMBOL,
    SAMPLING_PERIOD,
    SAMPLING_TOLERANCE,
    run_attached,
    run_measured,
    within_sampling_tolerance,
)
from repro.core.errors import PapiError
from repro.core.library import Papi
from repro.core.sampling import relative_error
from repro.hw.events import Signal
from repro.platforms import create
from repro.platforms.base import Substrate
from repro.validate.matrix import MatrixCell
from repro.validate.oracle import (
    PresetExpectation,
    expected_preset_values,
    expected_signal_counts,
)
from repro.workloads import Workload, conformance_mix, decoy_spin


def _native_signal_table(substrate: Substrate) -> Dict[str, tuple]:
    return {name: ev.signals for name, ev in substrate.native_events.items()}


def _skip_reason(exp: PresetExpectation) -> str:
    if not exp.signals:
        return "mapping resolves to no hardware signals"
    return "touches micro-architectural signals (no analytic oracle)"


def _oracle_cells_direct(
    platform: str,
    papi: Papi,
    workload: Workload,
    expectations: Dict[str, PresetExpectation],
) -> List[MatrixCell]:
    cells = []
    for symbol in sorted(expectations):
        exp = expectations[symbol]
        if not exp.checkable:
            cells.append(MatrixCell(
                plane="oracle", platform=platform, name=symbol,
                status="skip", detail=_skip_reason(exp),
            ))
            continue
        detail = ""
        if exp.drift:
            detail = (
                f"platform semantics drift: reference expects "
                f"{exp.reference_expected}"
            )
        try:
            actual = run_measured(papi, workload.program, [symbol])[symbol]
        except PapiError as exc:
            cells.append(MatrixCell(
                plane="oracle", platform=platform, name=symbol,
                status="skip", expected=exp.expected,
                detail=f"not countable here: {exc}", drift=exp.drift,
            ))
            continue
        err = relative_error(actual, exp.expected)
        cells.append(MatrixCell(
            plane="oracle", platform=platform, name=symbol,
            status="pass" if actual == exp.expected else "fail",
            expected=exp.expected, actual=actual, error=err,
            drift=exp.drift, detail=detail,
        ))
    return cells


def _oracle_cells_sampling(
    platform: str,
    papi: Papi,
    workload: Workload,
    expectations: Dict[str, PresetExpectation],
) -> List[MatrixCell]:
    """One sampling run covering every checkable preset at once.

    The estimates carry ~1/sqrt(matches) noise, and at the quick size
    several presets expect only a few dozen matches: these cells pass
    at seed 12345 and fail at most other seeds (ROADMAP, "Verdicts that
    hold at every seed").
    """
    cells = []
    checkable = [s for s in sorted(expectations) if expectations[s].checkable]
    for symbol in sorted(expectations):
        if symbol not in checkable:
            cells.append(MatrixCell(
                plane="oracle", platform=platform, name=symbol,
                status="skip", detail=_skip_reason(expectations[symbol]),
            ))
    if not checkable:
        return cells
    papi.sampling_period = SAMPLING_PERIOD
    values = run_measured(papi, workload.program, checkable)
    for symbol in checkable:
        exp = expectations[symbol]
        actual = values[symbol]
        err = relative_error(actual, exp.expected)
        cells.append(MatrixCell(
            plane="oracle", platform=platform, name=symbol,
            status=("pass" if within_sampling_tolerance(actual, exp.expected)
                    else "fail"),
            expected=exp.expected, actual=actual, error=err,
            drift=exp.drift,
            detail=f"sample-derived estimate, tolerance "
                   f"{SAMPLING_TOLERANCE:.0%}",
        ))
    return cells


def run_oracle_plane(
    platforms: Sequence[str],
    thorough: bool = False,
    seed: int = 12345,
) -> List[MatrixCell]:
    """Check every preset of every platform against the oracle."""
    n = 400 if thorough else 120
    cells: List[MatrixCell] = []
    for platform in platforms:
        substrate = create(platform, seed=seed)
        papi = Papi(substrate)
        workload = conformance_mix(n, use_fma=substrate.HAS_FMA)
        counts = expected_signal_counts(workload.program)
        expectations = expected_preset_values(
            platform, counts, _native_signal_table(substrate)
        )
        if substrate.supports_sampling_counts():
            cells.extend(_oracle_cells_sampling(
                platform, papi, workload, expectations
            ))
        else:
            cells.extend(_oracle_cells_direct(
                platform, papi, workload, expectations
            ))
    return cells


def run_virtualization_plane(
    platforms: Sequence[str],
    thorough: bool = False,
    seed: int = 12345,
) -> List[MatrixCell]:
    """Attached counts must see exactly one thread, even across CPUs.

    Each cell spawns the conformance workload plus a pure-integer decoy
    on a fresh machine, attaches a ``PAPI_TOT_INS`` EventSet to the
    workload thread only, lets the scheduler interleave (and on SMP,
    migrate) both, and requires the stopped value to equal the oracle's
    instruction count for the workload program alone.
    """
    n = 250 if thorough else 80
    cells: List[MatrixCell] = []
    for platform in platforms:
        for ncpus in ATTACH_NCPUS:
            cell_name = f"{PROBE_SYMBOL}@ncpus={ncpus}"
            substrate = create(platform, seed=seed, ncpus=ncpus)
            if substrate.supports_sampling_counts():
                cells.append(MatrixCell(
                    plane="virtual", platform=platform, name=cell_name,
                    status="skip",
                    detail="sampling substrate has no per-thread attach",
                ))
                continue
            workload = conformance_mix(n, use_fma=substrate.HAS_FMA)
            expected = expected_signal_counts(
                workload.program
            )[Signal.TOT_INS]
            actual = run_attached(Papi(substrate), workload.program,
                                  decoy_spin(40 * n).program)
            cells.append(MatrixCell(
                plane="virtual", platform=platform, name=cell_name,
                status="pass" if actual == expected else "fail",
                expected=expected, actual=actual,
                error=relative_error(actual, expected),
                detail="attached thread vs decoy under round-robin",
            ))
    return cells
