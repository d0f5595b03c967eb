"""P1: simulator throughput -- interpreter vs the trace execution engine.

Not a paper experiment: this guards the engine that makes the paper
experiments affordable.  Four workload shapes stress the engine paths:

- ``loop_heavy``  -- a steady counted loop: one self-loop block, which
  runs as a one-member compiled region;
- ``branchy``     -- data-dependent branches; compiled multi-block
  regions with deferred (vectorized) count accumulation;
- ``probed``      -- a dynaprof-style probe in a realistic instrumented
  loop body; the probe compiles into the region as a constant-cost
  prologue (pre-resolved handler + one specialization guard);
- ``call_heavy``  -- a CALL/RET loop; the leaf's RET is the first back
  edge to turn hot, so one region headed at the call's continuation
  inlines the loop branch, the CALL and the leaf.

The headline metrics are *speedup ratios* (engine time vs interpreter
time on the same host), which are stable across machines; absolute
instructions/second are reported for context only.  Every run also
re-asserts that the two engine tiers (off / trace) retire the same
instructions with the same counts.  The committed baseline in
``BENCH_p1_interp_throughput.json`` stores the expected ratios;
``--check`` fails when a ratio regresses by more than 20%,
``--update-baseline`` rewrites it and appends a snapshot to the
``trajectory`` history list.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from _shared import emit, run_once
from repro.analysis import Table
from repro.hw import Assembler, Machine, MachineConfig
from repro.hw.blockcache import compile_cached

BASELINE_PATH = Path(__file__).parent / "BENCH_p1_interp_throughput.json"

#: a regression worse than this factor vs the baseline ratio fails --check.
REGRESSION_TOLERANCE = 0.20

#: baseline ratios below this are noise-dominated (the workload runs
#: mostly on the slow path, so engine and interpreter times are nearly
#: equal); they are reported and tracked but not regression-gated.
GATE_MIN_BASELINE = 1.5

#: floor asserted regardless of baseline: the whole point of the engine.
MIN_LOOP_HEAVY_SPEEDUP = 5.0


def loop_heavy(n=120_000):
    """Steady counted loop: invariant FP recomputation + affine counters.

    The whole body is one block that branches back to itself; once hot
    it runs as a one-member compiled region on deadline-derived fuel."""
    asm = Assembler(name="loop_heavy")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.fli("f1", 1.0001)
    asm.fli("f2", 0.75)
    asm.label("loop")
    asm.fma("f3", "f1", "f2", "f1")
    asm.fmul("f4", "f1", "f2")
    asm.addi("r4", "r4", 3)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


def branchy(n=40_000):
    """Alternates branch direction on a data-dependent parity test."""
    asm = Assembler(name="branchy")
    asm.label("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.li("r5", 2)
    asm.label("loop")
    asm.div("r3", "r1", "r5")
    asm.muli("r4", "r3", 2)
    asm.sub("r6", "r1", "r4")
    asm.beq("r6", "r0", "even")
    asm.addi("r7", "r7", 1)
    asm.jmp("join")
    asm.label("even")
    asm.addi("r8", "r8", 1)
    asm.label("join")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    return asm.build()


def probed(n=30_000):
    """A dynaprof-style probe heading a realistic instrumented block.

    The body mirrors what dynaprof actually instruments -- a working
    basic block of ALU/FP code -- rather than an empty counting loop.
    Each probe dispatch has an irreducible semantic cost (the handler
    must observe exact counts and pc), so the achievable speedup scales
    with the amount of real work amortizing that constant: an empty
    loop measures the dispatch floor, not the engine.
    """
    asm = Assembler(name="probed")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.fli("f1", 1.0001)
    asm.fli("f2", 0.75)
    asm.label("loop")
    asm.probe(1)
    asm.fma("f3", "f1", "f2", "f1")
    asm.fmul("f4", "f1", "f2")
    asm.fadd("f5", "f3", "f4")
    asm.fsub("f6", "f3", "f4")
    asm.fadd("f7", "f5", "f6")
    asm.fmul("f8", "f5", "f2")
    asm.addi("r4", "r4", 7)
    asm.muli("r5", "r1", 3)
    asm.sub("r6", "r4", "r1")
    asm.add("r7", "r4", "r6")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


def call_heavy(n=40_000):
    """A hot loop whose body is a CALL to a small leaf function.

    The leaf's RET reaches the call's continuation, a back edge that
    turns hot before the loop head does, so the region is headed there.
    It inlines the loop branch, the CALL and the leaf body and returns
    to its own head through a dispatch arm (a handful of ns per
    transfer); compiled blocks alone stop at every control transfer,
    and the interpreter additionally simulates the call stack per step.
    """
    asm = Assembler(name="call_heavy")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.fli("f1", 1.0001)
    asm.fli("f2", 0.75)
    asm.label("loop")
    asm.call("leaf")
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    asm.func("leaf")
    asm.fma("f3", "f1", "f2", "f1")
    asm.addi("r4", "r4", 3)
    asm.ret()
    asm.endfunc()
    return asm.build()


WORKLOADS = [("loop_heavy", loop_heavy), ("branchy", branchy),
             ("probed", probed), ("call_heavy", call_heavy)]


#: best-of-N timing: each path is run this many times and the fastest
#: run is kept.  The speedup is a *ratio* of two wall-clock times, so
#: host noise (frequency scaling, competing load) on either side skews
#: it; minima are far more stable than single samples.
TIMING_REPEATS = 3


def _time_run(prog, engine: str):
    best = None
    for _ in range(TIMING_REPEATS):
        # every repeat compiles all of its code, as the committed
        # baseline's runs did: the process-wide code cache would
        # otherwise hand later repeats the first repeat's code objects.
        compile_cached.cache_clear()
        m = Machine(MachineConfig(engine=engine))
        m.load(prog)
        if prog.name == "probed":
            m.register_probe(1, lambda pid, cpu: None)
        t0 = time.perf_counter()
        result = m.run_to_completion()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result.instructions, list(m.counts)


def run_experiment():
    rows = []
    for name, build in WORKLOADS:
        prog = build()
        t_interp, n_interp, c_interp = _time_run(prog, engine="off")
        t_engine, n_engine, c_engine = _time_run(prog, engine="trace")
        assert n_interp == n_engine and c_interp == c_engine, name
        rows.append({
            "workload": name,
            "instructions": n_interp,
            "interp_seconds": t_interp,
            "engine_seconds": t_engine,
            "interp_ips": n_interp / t_interp,
            "engine_ips": n_engine / t_engine,
            "speedup": t_interp / t_engine,
        })
    return rows


def render(rows) -> str:
    table = Table(
        ["workload", "instructions", "interp ins/s", "engine ins/s",
         "speedup"],
        title="P1: interpreter vs trace-engine throughput (bit-exact paths)",
    )
    for r in rows:
        table.add_row(
            r["workload"], r["instructions"],
            f"{r['interp_ips']:,.0f}", f"{r['engine_ips']:,.0f}",
            f"{r['speedup']:.1f}x",
        )
    return table.render()


def load_baseline():
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def check_against_baseline(rows, baseline) -> list:
    """Regression messages ([] = pass): ratio drops >20% vs baseline."""
    problems = []
    expected = baseline["speedups"]
    for r in rows:
        name = r["workload"]
        if name not in expected or expected[name] < GATE_MIN_BASELINE:
            continue
        floor = expected[name] * (1.0 - REGRESSION_TOLERANCE)
        if r["speedup"] < floor:
            problems.append(
                f"{name}: speedup {r['speedup']:.1f}x below "
                f"{floor:.1f}x (baseline {expected[name]:.1f}x - 20%)"
            )
    return problems


def update_baseline(rows) -> None:
    """Rewrite the expected ratios; history accumulates in trajectory.

    ``setdefault`` keeps this append-only even against hand-edited or
    pre-trajectory baseline files -- updating must never lose history.
    """
    baseline = load_baseline() or {}
    baseline["speedups"] = {r["workload"]: round(r["speedup"], 1)
                            for r in rows}
    baseline.setdefault("trajectory", []).append({
        r["workload"]: round(r["speedup"], 1) for r in rows
    })
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")


def bench_p1_interp_throughput(benchmark, capsys):
    rows = run_once(benchmark, run_experiment)
    emit(capsys, render(rows))
    by_name = {r["workload"]: r for r in rows}
    # the tentpole acceptance: >= 5x on the loop-heavy workload
    assert by_name["loop_heavy"]["speedup"] >= MIN_LOOP_HEAVY_SPEEDUP
    # compiled regions beat the interpreter on branchy code too
    assert by_name["branchy"]["speedup"] > 1.0
    baseline = load_baseline()
    if baseline is not None:
        problems = check_against_baseline(rows, baseline)
        assert not problems, problems


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="fail on >20%% speedup regression vs baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed baseline ratios")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also dump this run's measurements (rows + "
                             "committed baseline) as JSON, e.g. for a CI "
                             "artifact")
    args = parser.parse_args(argv)

    rows = run_experiment()
    print(render(rows))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({
            "rows": rows,
            "baseline": load_baseline(),
        }, indent=2) + "\n")
    by_name = {r["workload"]: r for r in rows}
    if by_name["loop_heavy"]["speedup"] < MIN_LOOP_HEAVY_SPEEDUP:
        print(f"FAIL: loop_heavy speedup "
              f"{by_name['loop_heavy']['speedup']:.1f}x < "
              f"{MIN_LOOP_HEAVY_SPEEDUP:.0f}x floor")
        return 1
    if args.update_baseline:
        update_baseline(rows)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0
    if args.check:
        baseline = load_baseline()
        if baseline is None:
            print(f"no baseline at {BASELINE_PATH}; "
                  f"run with --update-baseline first")
            return 1
        problems = check_against_baseline(rows, baseline)
        for p in problems:
            print("FAIL:", p)
        if problems:
            return 1
        print("ok: all speedups within 20% of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
