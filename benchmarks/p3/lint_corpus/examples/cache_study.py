#!/usr/bin/env python
"""Cache study: using PAPI_L1_DCM to evaluate loop blocking.

The motivating use case of hardware counters in the paper's introduction:
application performance tuning.  We compare naive and blocked matrix
multiply on every direct-counting platform, reading L1 miss and cycle
counters through the same portable code.  The verdict is *platform
dependent*: blocking slashes misses 13x on the small-cache simX86 and
pays off in cycles, while on the direct-mapped simT3E the tile working
set conflicts with itself and blocking actually loses.  That is the
paper's Section-4 lesson made concrete: counter data must be interpreted
in the context of the platform that produced it.

Run:  python examples/cache_study.py
"""

from repro import Papi, create
from repro.analysis import Table
from repro.platforms import DIRECT_PLATFORMS
from repro.workloads import matmul

N = 32
BLOCK = 8


def measure(platform_name: str, blocked: bool):
    substrate = create(platform_name)
    papi = Papi(substrate)
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_CYC", "PAPI_L1_DCM")
    work = matmul(N, use_fma=substrate.HAS_FMA, blocked=blocked, block=BLOCK)
    substrate.machine.load(work.program)
    es.start()
    substrate.machine.run_to_completion()
    cycles, misses = es.stop()
    return cycles, misses


def main() -> None:
    table = Table(
        ["platform", "naive L1_DCM", "blocked L1_DCM", "miss ratio",
         "naive cyc", "blocked cyc", "speedup"],
        title=f"matmul {N}x{N}, blocking factor {BLOCK} "
              f"(same portable measurement code on every platform)",
    )
    for name in DIRECT_PLATFORMS:
        cyc_naive, miss_naive = measure(name, blocked=False)
        cyc_blk, miss_blk = measure(name, blocked=True)
        table.add_row(
            name,
            miss_naive,
            miss_blk,
            round(miss_naive / max(1, miss_blk), 2),
            cyc_naive,
            cyc_blk,
            round(cyc_naive / cyc_blk, 3),
        )
    print(table.render())
    print()
    print("reading the table:")
    print(" - simX86 (4KB 4-way L1): blocking removes ~93% of misses and")
    print("   wins outright -- the textbook result;")
    print(" - simT3E (8KB direct-mapped): the 8x8 tiles conflict-miss against")
    print("   each other, so blocking *adds* misses; the counters catch it;")
    print(" - simPOWER/simIA64 (big lines, higher associativity): misses drop")
    print("   but the blocked code's extra index arithmetic costs more cycles")
    print("   than the saved memory stalls at this problem size.")
    print("one portable measurement harness, four different right answers --")
    print("which is precisely why PAPI exists.")


if __name__ == "__main__":
    main()
