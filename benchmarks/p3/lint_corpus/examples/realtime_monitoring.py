#!/usr/bin/env python
"""Real-time monitoring: the perfometer (Figure 2) + attach-without-restart.

1. Run a phased application under the perfometer and render the FLOPS
   trace -- the Figure 2 content -- in ASCII.
2. Press the "Select Metric button": switch to PAPI_L1_DCM mid-run and
   watch the memory phases light up instead.
3. The dynaprof trick: start an application *un*monitored, then attach
   the perfometer to the half-finished run without restarting it.
4. Save the trace file and load it back for off-line analysis.

Run:  python examples/realtime_monitoring.py
"""

import os
import tempfile

from repro import create
from repro.tools import Perfometer, PerfometerTrace
from repro.workloads import phased


def make_app():
    return phased(
        [("fp", 4000), ("mem", 4000), ("br", 3000)],
        repeats=3,
        names=("solver", "exchange", "bookkeeping"),
    )


def step1_flops_trace() -> None:
    print("== 1. runtime FLOPS trace (Figure 2) ==")
    substrate = create("simPOWER")
    pm = Perfometer(substrate, metric="PAPI_FP_OPS", interval_cycles=12_000)
    substrate.machine.load(make_app().program)
    pm.monitor()
    print(pm.render(width=66, height=7))
    print(f"   {len(pm.trace.points)} samples; the three humps per period "
          f"are the solver phases")
    print()
    return pm.trace


def step2_select_metric() -> None:
    print("== 2. Select Metric: FLOPS first, then L1 misses ==")
    substrate = create("simPOWER")
    pm = Perfometer(substrate, metric="PAPI_FP_OPS", interval_cycles=12_000)
    substrate.machine.load(make_app().program)
    pm.monitor(max_intervals=10)
    pm.select_metric("PAPI_L1_DCM")
    pm.monitor()
    print(pm.render("PAPI_FP_OPS", width=40, height=4))
    print(pm.render("PAPI_L1_DCM", width=40, height=4))
    print()


def step3_attach() -> None:
    print("== 3. attach to a running application ==")
    substrate = create("simPOWER")
    substrate.machine.load(make_app().program)
    substrate.machine.run(max_instructions=20_000)  # runs unmonitored...
    print(f"   application already at pc={substrate.machine.cpu.pc}, "
          f"{substrate.machine.user_cycles} cycles in")
    pm = Perfometer(substrate, metric="PAPI_TOT_INS", interval_cycles=15_000)
    pm.monitor()  # ...now monitored to completion, no restart
    print(f"   attached and captured {len(pm.trace.points)} samples "
          f"of the remaining run")
    print()


def step4_trace_file(trace: PerfometerTrace) -> None:
    print("== 4. trace file for off-line analysis ==")
    fd, path = tempfile.mkstemp(suffix=".perfometer.json")
    os.close(fd)
    try:
        trace.save(path)
        loaded = PerfometerTrace.load(path)
        rates = loaded.rates("PAPI_FP_OPS")
        print(f"   saved + reloaded {len(loaded.points)} points from {path}")
        print(f"   peak rate {max(rates):.3g}/s, mean "
              f"{sum(rates) / len(rates):.3g}/s")
    finally:
        os.unlink(path)


def main() -> None:
    trace = step1_flops_trace()
    step2_select_metric()
    step3_attach()
    step4_trace_file(trace)


if __name__ == "__main__":
    main()
