#!/usr/bin/env python
"""Multiplexing: more events than counters, and why it is opt-in.

simX86 has two physical counters.  We want five events.  Without
multiplexing, PAPI_add_event fails with PAPI_ECNFLCT; with an explicit
PAPI_set_multiplex it works -- but the counts are *estimates*, and on a
short run of a phased program they are badly wrong, which is exactly why
the specification refused to enable multiplexing transparently in the
high-level interface (Section 2).

Run:  python examples/multiplex_accuracy.py
"""

from repro import Papi, create
from repro.analysis import Table, rel_error_pct
from repro.core.errors import ConflictError
from repro.workloads import phased

EVENTS = ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS", "PAPI_L1_DCM",
          "PAPI_BR_MSP"]


def run_multiplexed(repeats: int):
    substrate = create("simX86")
    papi = Papi(substrate)
    papi.mpx_quantum_cycles = 6000
    es = papi.create_eventset()
    es.set_multiplex()
    es.add_named(*EVENTS)
    work = phased([("fp", 1500), ("mem", 1500), ("br", 1500)],
                  repeats=repeats, use_fma=False)
    substrate.machine.load(work.program)
    # this study is simX86-specific by design (PAPI_BR_MSP has no
    # simT3E mapping, so the set is not portable -- and need not be).
    es.start()  # papi-lint: disable=PL103
    substrate.machine.run_to_completion()
    values = dict(zip(es.event_names, es.stop()))
    return values, work.expect.flops


def main() -> None:
    print("simX86 has", create("simX86").n_counters, "physical counters;",
          "we want", len(EVENTS), "events\n")

    # -- the conflict without multiplexing --------------------------------
    papi = Papi(create("simX86"))
    es = papi.create_eventset()
    try:
        es.add_named(*EVENTS)
    except ConflictError as exc:
        print("without multiplexing:", exc)
    print()

    # -- with multiplexing: accuracy depends on run length -----------------
    table = Table(
        ["phase repeats", "true FLOPs", "estimated", "error %"],
        title="multiplexed PAPI_FP_OPS estimate vs run length "
              "(phased program, quantum 6000 cycles)",
    )
    for repeats in (1, 2, 4, 8, 16, 32):
        values, true_flops = run_multiplexed(repeats)
        est = values["PAPI_FP_OPS"]
        table.add_row(repeats, true_flops, est,
                      round(rel_error_pct(est, true_flops), 1))
    print(table.render())
    print()
    print("short runs mis-extrapolate the phases a subset never observed;")
    print("long runs average over phases and converge -- the reason tool")
    print("developers who multiplex 'take care of ensuring that runtimes")
    print("are sufficiently long to yield accurate results' (Section 2).")


if __name__ == "__main__":
    main()
