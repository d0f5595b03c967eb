"""Canonical experiment tables for differential (golden) testing.

Every paper experiment (E1--E10) and ablation (A1--A4) is reduced to a
JSON-serializable *canonical table*: dataclasses become dicts, tuples
become lists, dict keys become strings.  The committed goldens in
``goldens_seed.json`` were captured from the single-CPU seed tree with
``capture_goldens.py`` *before* the SMP refactor landed; the
differential suite re-derives the tables on the current tree with
``ncpus=1`` at every engine tier (``repro.hw.cpu.ENGINE_TIERS``) and
asserts bit-exact equality against the same goldens: a tier that
changes any observable is a correctness bug, not a new baseline.

The bench modules bind ``create`` at import time (``from
repro.platforms import create``), so the engine tier is forced by
patching each imported bench module's ``create`` attribute -- not the
global -- which keeps every tier runnable in a single process.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path
from typing import Any, Callable

from repro.hw.cpu import check_tier

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
GOLDENS_PATH = Path(__file__).parent / "goldens_seed.json"

#: every experiment table under differential lockdown, in paper order.
EXPERIMENTS = (
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
    "a1", "a2", "a3", "a4",
)

_MODULES = {
    "e1": "bench_e1_overhead_by_substrate",
    "e2": "bench_e2_calibrate_convergence",
    "e3": "bench_e3_multiplex_accuracy",
    "e4": "bench_e4_allocation",
    "e5": "bench_e5_attribution",
    "e6": "bench_e6_flops_normalization",
    "e7": "bench_e7_read_granularity",
    "e8": "bench_e8_portability_matrix",
    "e9": "bench_e9_perfometer_trace",
    "e10": "bench_e10_tool_integration",
    "a1": "bench_a1_multiplex_quantum",
    "a2": "bench_a2_sampling_period",
    "a3": "bench_a3_allocation_split",
    "a4": "bench_a4_call_sampling",
}


def canonical(obj: Any) -> Any:
    """Reduce an experiment result to JSON-roundtrippable primitives.

    Deliberately strict: an unknown object type raises instead of
    degrading to ``repr`` so nondeterministic junk (addresses, handles)
    can never leak into a golden.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {
            str(k): canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(x) for x in obj)
    if type(obj).__name__ == "ConvergenceStudy":  # plain class, not dataclass
        return {"label": obj.label, "points": canonical(obj.points)}
    raise TypeError(f"non-canonical experiment value: {type(obj)!r}")


def _load_bench(key: str):
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    return importlib.import_module(_MODULES[key])


def _forced_create(engine: str) -> Callable:
    from repro.platforms import create as real_create

    def wrapped(name, *args, **kwargs):
        kwargs["engine"] = engine
        return real_create(name, *args, **kwargs)

    return wrapped


def _patch_targets(mod):
    """Modules whose import-time ``create`` binding must be overridden."""
    import repro.tools.profiler as profiler_mod

    targets = [profiler_mod]
    if hasattr(mod, "create"):
        targets.append(mod)
    return targets


def build_table(key: str, engine: str) -> Any:
    """Run one experiment at the engine tier *engine*; canonical output."""
    check_tier(engine)
    mod = _load_bench(key)
    targets = _patch_targets(mod)
    saved = [t.create for t in targets]
    for t in targets:
        t.create = _forced_create(engine)
    try:
        if key == "a3":
            raw = {
                "simX86": mod.compare_platform(
                    "simX86", mod.brute_force_constraint
                ),
                "simPOWER": mod.compare_platform(
                    "simPOWER", mod.brute_force_groups
                ),
            }
        elif key == "e9":
            pm, trace = mod.run_experiment()
            raw = {
                "points": trace.points,
                "render": pm.render(width=66, height=8),
            }
        else:
            raw = mod.run_experiment()
    finally:
        for t, orig in zip(targets, saved):
            t.create = orig
    return canonical(raw)
