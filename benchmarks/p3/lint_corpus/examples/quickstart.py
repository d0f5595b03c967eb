#!/usr/bin/env python
"""Quickstart: count hardware events around a kernel with the high level API.

This is the 60-second tour of the reproduction:

1. pick a simulated platform (here: the POWER3-like one),
2. initialize PAPI on it,
3. load a workload onto the simulated machine,
4. bracket the run with high-level start/stop calls,
5. read the portable timers and the PAPI_flops rate call.

Run:  python examples/quickstart.py
"""

from repro import HighLevel, Papi, create
from repro.workloads import matmul


def main() -> None:
    # -- 1. pick a platform -------------------------------------------------
    substrate = create("simPOWER")
    print(substrate.describe())
    print()

    # -- 2. initialize PAPI (PAPI_library_init) ------------------------------
    papi = Papi(substrate)
    hl = HighLevel(papi)
    print(f"PAPI initialized: {papi.num_counters} hardware counters")
    print()

    # -- 3. build and load a workload ---------------------------------------
    n = 20
    work = matmul(n, use_fma=substrate.HAS_FMA)
    substrate.machine.load(work.program)
    print(f"workload: {work.name}, expected FLOPs = {work.expect.flops}")
    print()

    # -- 4. measure with the high-level interface ----------------------------
    # (this trio coexists in one POWER counter group; see DESIGN.md E8)
    hl.start_counters(["PAPI_TOT_INS", "PAPI_L1_DCM", "PAPI_TLB_DM"])
    substrate.machine.run_to_completion()
    tot_ins, l1_miss, tlb_miss = hl.stop_counters()

    # -- 5. the PAPI_flops rate call on a fresh run ---------------------------
    substrate.machine.load(matmul(n, use_fma=substrate.HAS_FMA).program)
    hl.flops()  # first call arms the measurement and returns zeros
    substrate.machine.run_to_completion()
    report = hl.flops()
    hl.stop_rates()

    print("measured:")
    print(f"  PAPI_TOT_INS = {tot_ins}")
    print(f"  PAPI_L1_DCM  = {l1_miss}")
    print(f"  PAPI_TLB_DM  = {tlb_miss}")
    print(f"  PAPI_flops   -> {report.count} flops, "
          f"{report.mrate:.1f} MFLOPS "
          f"({report.real_time * 1e6:.0f} usec real time)")
    assert report.count == work.expect.flops, "normalization must be exact"
    print()
    print("the same code runs unchanged on:",)
    from repro import PLATFORM_NAMES

    print(" ", ", ".join(PLATFORM_NAMES))


if __name__ == "__main__":
    main()
