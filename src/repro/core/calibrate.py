"""The PAPI calibrate utility.

Section 4: "test programs may need to be written to determine exactly
what events are being counted.  These test programs can take the form of
micro-benchmarks for which the expected counts are known" and "Test runs
of the PAPI calibrate utility on this substrate have shown that event
counts converge to the expected value, given a long enough run time".

:func:`calibrate` runs known-FLOP kernels under PAPI_FP_OPS (and
PAPI_FP_INS) and reports measured vs expected;
:func:`calibrate_convergence` sweeps run lengths on a sampling substrate
to reproduce the convergence behaviour (experiment E2).

The same known-answer loop drives the validate planes (the Röhl et
al. half of PAPERS.md) and the refutation engine (the CounterPoint
half), so all three measure a program one way: :func:`run_measured`
counts events over one run, :func:`run_attached` counts one thread
while a decoy competes, :func:`measure_access_costs` times the
interface calls, and :func:`scoped_eventset` is the EventSet lifetime
they and the other validate probes share.  :data:`SAMPLING_PERIOD` and
:data:`SAMPLING_TOLERANCE` are the sampling substrate's one period and
tolerance, and :func:`within_sampling_tolerance` is its one verdict.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.eventset import EventSet
from repro.core.library import Papi
from repro.core.sampling import ConvergenceStudy, relative_error
from repro.hw.isa import Program
from repro.platforms.base import Substrate
from repro.workloads import CALIBRATION_KERNELS


@dataclass(frozen=True)
class CalibrationResult:
    """Measured vs expected counts for one kernel on one platform."""

    platform: str
    kernel: str
    n: int
    expected_flops: int
    measured_fp_ops: int
    expected_fp_ins: int
    measured_fp_ins: int
    cycles: int
    real_usec: float

    @property
    def fp_ops_error(self) -> float:
        return relative_error(self.measured_fp_ops, self.expected_flops)

    @property
    def fp_ins_error(self) -> float:
        return relative_error(self.measured_fp_ins, self.expected_fp_ins)

    @property
    def fp_ops_ok(self, tolerance: float = 0.05) -> bool:
        return self.fp_ops_error <= tolerance


#: ProfileMe interrupt period for every known-answer run on the sampling
#: substrate (validate's oracle, components and skid planes and the
#: refutation engine): fine-grained, so short programs still yield
#: dense samples.
SAMPLING_PERIOD = 64

#: relative tolerance for a sample-derived estimate (``matches *
#: period``) against its known answer.  The estimate's noise goes as
#: 1/sqrt(matches), so the tolerance holds only where enough matches are
#: expected: the validate oracle plane's simALPHA cells pass at seed
#: 12345, not at every seed (ROADMAP, "Verdicts that hold at every seed").
SAMPLING_TOLERANCE = 0.20


def within_sampling_tolerance(actual: float, expected: float) -> bool:
    """Whether a sample-derived estimate passes against its known answer:
    ``|actual - expected| <= SAMPLING_TOLERANCE * |expected|``, decided in
    exact rationals with the tolerance read as the decimal it is written
    as.  Estimates can sit exactly on the bound (192 against 240), where
    a float ratio would decide by how 48/240 and 0.20 round.  For
    expected 0 only 0 passes.
    """
    bound = Fraction(str(SAMPLING_TOLERANCE)) * abs(Fraction(expected))
    return abs(Fraction(actual) - Fraction(expected)) <= bound


#: the one-native preset counted by the attach and cost probes: it maps
#: to a single native on every platform, so it allocates even on
#: simSPARC's two pinned PICs and the cost arithmetic stays simplest.
PROBE_SYMBOL = "PAPI_TOT_INS"

#: CPU counts the attach rung runs at: a single CPU, and an SMP machine
#: where the scheduler migrates the attached thread.
ATTACH_NCPUS = (1, 4)

#: the interface operations the cost probe times, in call order.
COST_OPS = ("start", "read", "reset", "stop")


@contextmanager
def scoped_eventset(papi: Papi) -> Iterator[EventSet]:
    """An EventSet for one measurement, destroyed on exit (and stopped
    first when an exception left it running)."""
    es = papi.create_eventset()
    try:
        yield es
    finally:
        if es.running:  # an exception left the set running
            es.stop()
        papi.destroy_eventset(es)


def run_measured(papi: Papi, program: Program, symbols: Sequence[str],
                 budget: Optional[int] = None) -> Dict[str, int]:
    """Load + run *program* with the given events counted.

    The one measure-one-program loop (create EventSet, add events, load,
    start, run to completion, stop, destroy), shared by the calibrate
    utility, the validate planes (oracle, components), the refutation
    engine's preset checks and the performance-model collector.
    *budget* caps the run's instructions (the runaway guard); None keeps
    the machine's default.  A :class:`~repro.core.errors.PapiError` from
    adding an event propagates with the EventSet already destroyed.
    """
    machine = papi.substrate.machine
    with scoped_eventset(papi) as es:
        for symbol in symbols:
            es.add_event(papi.event_name_to_code(symbol))
        machine.load(program)
        es.start()
        if budget is None:
            machine.run_to_completion()
        else:
            machine.run_to_completion(budget_instructions=budget)
        values = es.stop()
    return dict(zip(symbols, values))


def run_attached(papi: Papi, program: Program, decoy: Program) -> int:
    """:data:`PROBE_SYMBOL` attached to *program*'s thread alone.

    Spawns *program* and a competing *decoy* thread on the substrate's
    scheduler, attaches the EventSet to the program's thread and lets
    the scheduler interleave (and on SMP, migrate) both.  A count that
    saw the decoy, or lost a slice across a migration, differs from the
    program's own count.
    """
    os_ = papi.substrate.os
    worker = os_.spawn(program, name="work")
    os_.spawn(decoy, name="decoy")
    with scoped_eventset(papi) as es:
        es.add_event(papi.event_name_to_code(PROBE_SYMBOL))
        es.attach(worker)
        es.start()
        os_.run()
        return es.stop()[0]


def measure_access_costs(papi: Papi) -> Tuple[Dict[str, int], int]:
    """Wall-cycle delta of each :data:`COST_OPS` call, and native count.

    Times start/read/reset/stop of a :data:`PROBE_SYMBOL` EventSet
    through the full PAPI stack; compare with
    :meth:`~repro.platforms.base.AccessCosts.per_op` of the same count.
    """
    real_cyc = papi.substrate.real_cyc
    with scoped_eventset(papi) as es:
        es.add_event(papi.event_name_to_code(PROBE_SYMBOL))
        stamps = [real_cyc()]
        for op in (es.start, es.read, es.reset, es.stop):
            op()
            stamps.append(real_cyc())
        n_natives = max(len(es.assignment), 1)
    deltas = {op: b - a for op, a, b in zip(COST_OPS, stamps, stamps[1:])}
    return deltas, n_natives


def calibrate(
    substrate: Substrate,
    kernel: str = "dot",
    n: int = 2000,
    papi: Optional[Papi] = None,
    sampling_period: Optional[int] = None,
) -> CalibrationResult:
    """Run one calibration kernel and compare against its expectations.

    *sampling_period* tunes the sample-based estimation on the sampling
    substrate (finer period = more samples = tighter estimates, at more
    interrupt overhead).
    """
    try:
        factory = CALIBRATION_KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown calibration kernel {kernel!r}; "
            f"known: {sorted(CALIBRATION_KERNELS)}"
        ) from None
    papi = papi or Papi(substrate)
    if sampling_period is not None:
        papi.sampling_period = sampling_period
    use_fma = getattr(substrate, "HAS_FMA", False)
    workload = factory(n, use_fma=use_fma)
    values = run_measured(papi, workload.program,
                          ["PAPI_FP_OPS", "PAPI_FP_INS"])
    assert workload.expect.flops is not None
    assert workload.expect.fp_ins is not None
    return CalibrationResult(
        platform=substrate.NAME,
        kernel=kernel,
        n=n,
        expected_flops=workload.expect.flops,
        measured_fp_ops=values["PAPI_FP_OPS"],
        expected_fp_ins=workload.expect.fp_ins,
        measured_fp_ins=values["PAPI_FP_INS"],
        cycles=substrate.machine.user_cycles,
        real_usec=substrate.real_usec(),
    )


def calibrate_all(substrate: Substrate, n: int = 2000) -> List[CalibrationResult]:
    """Calibrate every known kernel on *substrate* (fresh runs share the
    machine, so counts are per-run via the EventSet, not machine totals)."""
    papi = Papi(substrate)
    return [
        calibrate(substrate, kernel, n=n, papi=papi)
        for kernel in sorted(CALIBRATION_KERNELS)
    ]


def calibrate_convergence(
    substrate: Substrate,
    sizes: Sequence[int],
    kernel: str = "dot",
    sampling_period: Optional[int] = None,
) -> ConvergenceStudy:
    """Sweep kernel sizes and record estimate error vs run length (E2).

    Meaningful on the sampling substrate, where counts are estimated
    from samples (error ~ 1/sqrt(samples)); on direct substrates the
    error is identically ~0, which the study will show.
    """
    factory = CALIBRATION_KERNELS[kernel]
    use_fma = getattr(substrate, "HAS_FMA", False)
    papi = Papi(substrate)
    if sampling_period is not None:
        papi.sampling_period = sampling_period
    study = ConvergenceStudy(label=f"{substrate.NAME}:{kernel}")
    for n in sizes:
        workload = factory(n, use_fma=use_fma)
        values = run_measured(papi, workload.program,
                              ["PAPI_FP_OPS", "PAPI_TOT_INS"])
        assert workload.expect.flops is not None
        study.add(
            run_instructions=values["PAPI_TOT_INS"],
            n_samples=0,  # refined below when the substrate samples
            estimate=values["PAPI_FP_OPS"],
            expected=workload.expect.flops,
        )
    return study
