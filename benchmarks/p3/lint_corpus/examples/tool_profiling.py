#!/usr/bin/env python
"""Third-party-tool workflow: dynaprof probes, TAU-style profiles, tracing.

Reproduces the Section 2-3 tool stack on the demo application:

1. dynaprof lists the program's internal structure and inserts PAPI +
   wallclock probes at function entry/exit (no source changes);
2. a TAU-style multi-metric profile (several counter batches over
   deterministic re-runs) identifies each function's bottleneck;
3. event-based ratios and cross-metric correlations single out the
   memory-bound routine;
4. a Vampir-style trace logs timestamped ENTER/EXIT records and exports
   them to a line format.

Run:  python examples/tool_profiling.py
"""

import io

from repro import Papi, create
from repro.analysis import Table
from repro.tools import (
    Dynaprof,
    PapiProbe,
    Profiler,
    Trace,
    TracerProbe,
    WallclockProbe,
)
from repro.workloads import demo_app

SCALE = 40


def step1_dynaprof() -> None:
    print("== 1. dynaprof: structure listing + probes ==")
    substrate = create("simPOWER")
    papi = Papi(substrate)
    dyn = Dynaprof(substrate, papi)
    dyn.load(demo_app(scale=SCALE))
    print("   functions:", ", ".join(
        f"{name}({size} ins)" for name, size in dyn.list_functions()
    ))
    papi_probe = dyn.add_probe(
        PapiProbe(papi, ["PAPI_TOT_CYC", "PAPI_L1_DCM"])
    )
    wall = dyn.add_probe(WallclockProbe(papi))
    dyn.instrument()
    dyn.run()
    table = Table(["function", "calls", "excl cycles", "excl L1_DCM",
                   "excl usec"])
    for fn, prof in papi_probe.profiles.items():
        table.add_row(
            fn, prof.calls,
            int(prof.exclusive["PAPI_TOT_CYC"]),
            int(prof.exclusive["PAPI_L1_DCM"]),
            round(wall.profiles[fn].exclusive["real_usec"], 1),
        )
    print(table.render())
    print()


def step2_profiler() -> None:
    print("== 2. TAU-style multi-metric profile ==")
    profiler = Profiler(
        "simPOWER",
        ["PAPI_TOT_CYC", "PAPI_FP_OPS", "PAPI_L1_DCM", "PAPI_BR_MSP"],
    )
    report = profiler.profile(lambda: demo_app(scale=SCALE))
    print(report.to_text())
    print()
    print("   hottest by FP_OPS :", report.hottest("PAPI_FP_OPS"))
    print("   hottest by L1_DCM :", report.hottest("PAPI_L1_DCM"))
    print("   hottest by BR_MSP :", report.hottest("PAPI_BR_MSP"))
    corr = report.correlation("PAPI_TOT_CYC", "PAPI_L1_DCM")
    print(f"   corr(cycles, L1 misses) across functions = {corr:+.2f}")
    ratios = report.derived_ratio("PAPI_L1_DCM", "PAPI_TOT_CYC")
    worst = max(ratios, key=ratios.get)
    print(f"   highest misses-per-cycle: {worst} "
          f"({ratios[worst]:.4f}) -> the memory-bound routine")
    print()


def step3_tracer() -> None:
    print("== 3. Vampir-style trace ==")
    substrate = create("simPOWER")
    papi = Papi(substrate)
    dyn = Dynaprof(substrate, papi)
    dyn.load(demo_app(scale=10))
    trace = Trace()
    dyn.add_probe(TracerProbe(papi, trace, tid=1,
                              events=["PAPI_TOT_INS"]))
    dyn.instrument()
    dyn.run()
    buf = io.StringIO()
    trace.export(buf)
    lines = buf.getvalue().splitlines()
    print(f"   {len(lines)} trace records; first six:")
    for line in lines[:6]:
        print("    ", line)
    durations = trace.region_durations()
    print("   region durations (cycles):",
          {k: v for k, v in sorted(durations.items())})


def main() -> None:
    step1_dynaprof()
    step2_profiler()
    step3_tracer()


if __name__ == "__main__":
    main()
