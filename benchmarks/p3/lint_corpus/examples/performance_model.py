#!/usr/bin/env python
"""Parameterizing a predictive performance model from PAPI data.

The paper's Section 5: "we plan to collaborate with performance modeling
projects ... in using PAPI to collect data for parameterizing predictive
performance models."  This example is that pipeline end to end:

1. measure a diverse training suite of workloads through the portable
   PAPI interface (counter vectors + cycles);
2. fit a linear cycles model by least squares;
3. inspect the fitted coefficients -- they recover the machine's actual
   latency parameters (e.g. the L2-miss coefficient lands near the
   configured memory latency);
4. predict the runtime of workloads the model never saw, from their
   counter signatures alone.

Run:  python examples/performance_model.py
"""

from repro.analysis import Table
from repro.analysis.model import (
    DEFAULT_FEATURES,
    collect_counters,
    fit_platform_model,
)
from repro.platforms import create
from repro.workloads import matmul, strided_scan

PLATFORM = "simIA64"


def main() -> None:
    # -- 1 + 2: measure the suite and fit -----------------------------------
    print(f"fitting the standard workload suite on {PLATFORM} ...")
    model, data = fit_platform_model(PLATFORM)
    print()
    print(model.describe())
    print()

    table = Table(
        ["training workload"] +
        [f.replace("PAPI_", "") for f in DEFAULT_FEATURES] +
        ["cycles", "model cycles", "err %"],
        title="training data (collected through PAPI) and fit quality",
    )
    for name, counters, cycles in data:
        pred = model.predict(counters)
        table.add_row(
            name,
            *[counters[f] for f in DEFAULT_FEATURES],
            cycles, int(pred),
            round(abs(pred - cycles) / cycles * 100, 1),
        )
    print(table.render())
    print()

    # -- 3: the coefficients against the machine's ground truth -------------
    machine_cfg = create(PLATFORM).machine.hierarchy.config
    print("coefficient sanity vs machine parameters:")
    print(f"  fitted cycles per L2 miss : "
          f"{model.coefficients['PAPI_L2_TCM']:7.1f}   "
          f"(machine memory latency: {machine_cfg.mem_latency})")
    print(f"  fitted cycles per L1 miss : "
          f"{model.coefficients['PAPI_L1_DCM']:7.1f}   "
          f"(machine L2 latency: {machine_cfg.l2_latency})")
    print()

    # -- 4: predict unseen workloads -----------------------------------------
    print("predicting workloads the model never saw:")
    unseen = [
        ("matmul(20)", lambda: matmul(20, use_fma=True)),
        ("scan(16k, stride 4)", lambda: strided_scan(16384, 4)),
    ]
    table = Table(["unseen workload", "true cycles", "predicted", "err %"])
    for name, factory in unseen:
        counters, cycles = collect_counters(PLATFORM, factory,
                                            DEFAULT_FEATURES)
        pred = model.predict(counters)
        table.add_row(name, cycles, int(pred),
                      round(abs(pred - cycles) / cycles * 100, 1))
    print(table.render())


if __name__ == "__main__":
    main()
