"""Layer boundaries of the reproduction, as wrap targets for the tracer.

Each entry names the public functions that mark one layer's boundary.
Nothing under ``src/`` changes: :func:`install` patches the classes and
module bindings from outside and :meth:`Tracer.restore` puts back the
identical originals.

Per-instruction hooks (cache, branch predictor, PMU overflow checks,
``BlockEngine.execute``) are deliberately *not* wrapped -- a span per
simulated instruction would dominate the run -- so their time lands in
the self time of ``hw.exec`` (``CPU.run``).
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List, Optional

from p3.trace import Tracer

#: layer names in report order; every one gets ``.calls`` and ``.self_s``.
LAYERS = (
    "core.api", "core.alloc", "core.mpx", "core.overflow", "components",
    "platforms", "faults", "hw.pmu", "simos", "hw.exec", "hw.compile",
    "lint.ast", "lint.flow",
    "daemon.client", "daemon.server", "daemon.wire", "daemon.worker",
    "daemon.journal", "daemon.supervisor",
)

SUBSTRATE_OPS = (
    "program_counter", "clear_counter", "start_counters", "stop_counters",
    "read_counters", "reset_counters", "arm_overflow", "disarm_overflow",
)


#: simulated-work counters of :meth:`SimRegistry.totals`.
SIM_KEYS = ("sim_ins", "fast_ins", "replayed_ins", "blocks_compiled",
            "regions_compiled", "traces_compiled")


class SimRegistry:
    """Every simulated machine built in this process, for exact counts.

    Holds a weak reference to each machine and its CPUs' signal-count
    lists and engine-stats objects, so registering keeps no simulator
    state alive.  A machine that is gone can run no more: its counts
    fold into a running total, and :meth:`totals` reads only the live
    machines (cheap enough to take around every papid worker call).
    """

    def __init__(self) -> None:
        from repro.hw.events import Signal

        self.tot_ins = Signal.TOT_INS
        #: ``(machine weakref, counts, engine stats or None)`` per CPU.
        self.live: List[tuple] = []
        self.retired = dict.fromkeys(SIM_KEYS, 0)

    def register(self, machine) -> None:
        ref = weakref.ref(machine)
        for cpu in machine.cpus:
            stats = cpu.engine.stats if cpu.engine is not None else None
            self.live.append((ref, cpu.counts, stats))

    def _sum(self, cpus: List[tuple]) -> Dict[str, int]:
        tot_ins = self.tot_ins
        ins = fast = replayed = blocks = regions = traces = 0
        for _ref, counts, stats in cpus:
            ins += counts[tot_ins]
            if stats is not None:
                fast += stats.fast_instructions
                replayed += stats.replayed_instructions
                blocks += stats.blocks_compiled
                regions += stats.regions_compiled
                traces += stats.traces_compiled
        return dict(zip(SIM_KEYS, (ins, fast, replayed, blocks, regions,
                                   traces)))

    def totals(self) -> Dict[str, int]:
        """TOT_INS and engine counters summed over every machine built."""
        gone = [c for c in self.live if c[0]() is None]
        if gone:
            self.live = [c for c in self.live if c[0]() is not None]
            for key, value in self._sum(gone).items():
                self.retired[key] += value
        live = self._sum(self.live)
        return {key: self.retired[key] + live[key] for key in SIM_KEYS}

    def reset(self) -> None:
        self.live = []
        self.retired = dict.fromkeys(SIM_KEYS, 0)


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in SIM_KEYS}


def install_registry(tracer: Tracer, registry: SimRegistry) -> None:
    """Register every ``Machine`` at construction (no spans)."""
    from repro.hw.machine import Machine

    init = Machine.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        registry.register(self)

    tracer.patch(Machine, "__init__", counted_init)


def install(tracer: Tracer, registry: SimRegistry,
            span_dir: Optional[str] = None) -> None:
    """Wrap every layer boundary; *span_dir* receives worker span dumps."""
    import repro.core.eventset as eventset_mod
    import repro.daemon.shards as shards_mod
    import repro.lint.flow as flow_mod
    from repro.components.base import Component
    from repro.core.eventset import EventSet
    from repro.core.library import Papi
    from repro.core.multiplex import MultiplexController
    from repro.core.overflow import OverflowRegistration
    from repro.daemon.client import PapidClient
    from repro.daemon.journal import Journal
    from repro.daemon.server import PapidServer
    from repro.daemon.worker import WorkerState
    from repro.faults.injector import FaultInjector
    from repro.hw.blockcache import BlockCompiler
    from repro.hw.cpu import CPU
    from repro.hw.pmu import PMU
    from repro.lint.apilint import ApiLinter
    from repro.platforms.base import Substrate
    from repro.simos.scheduler import OS

    install_registry(tracer, registry)
    tracer.wrap_public(Papi, "core.api")
    tracer.wrap_public(EventSet, "core.api")
    tracer.wrap(eventset_mod, "allocate", "core.alloc")
    for attr in ("start", "read", "stop", "reset"):
        tracer.wrap(MultiplexController, attr, "core.mpx")
    tracer.wrap_factory(OverflowRegistration, "make_dispatch",
                        "core.overflow")
    tracer.wrap_overrides(Component, ("raw_value",), "components")
    tracer.wrap_overrides(Substrate, SUBSTRATE_OPS, "platforms")
    for attr in ("before_op", "filter_values"):
        tracer.wrap(FaultInjector, attr, "faults")
    for attr in ("program", "start", "stop", "read", "export_counter",
                 "import_counter"):
        tracer.wrap(PMU, attr, "hw.pmu")
    for attr in ("run", "run_slice"):
        tracer.wrap(OS, attr, "simos")
    tracer.wrap(CPU, "run", "hw.exec")
    for attr in ("compile_block", "compile_trace", "compile_region"):
        tracer.wrap(BlockCompiler, attr, "hw.compile")
    tracer.wrap(ApiLinter, "lint", "lint.ast")
    tracer.wrap(flow_mod, "lint_flow", "lint.flow")

    tracer.wrap(PapidClient, "call", "daemon.client")
    tracer.wrap(PapidServer, "submit", "daemon.server")
    # one dispatch thread per shard: the send -> recv round trip, which
    # the worker's handle span (stitched in by shard tag) is carved from.
    tracer.wrap(PapidServer, "_dispatch", "daemon.wire",
                tag=lambda args: args[1], inherit="daemon.server")
    tracer.wrap(PapidServer, "ping_shard", "daemon.supervisor")
    # the worker's simulated work is counted per call, so a pass counts
    # only the calls made inside timed ops (not fleet set-up or drain).
    tracer.wrap(WorkerState, "handle", "daemon.worker",
                tag=lambda args: args[0].worker_id, counts=registry.totals)
    tracer.wrap(Journal, "append", "daemon.journal")
    if span_dir is not None:
        _install_worker_dump(tracer, registry, shards_mod, span_dir)


def _install_worker_dump(tracer: Tracer, registry: SimRegistry,
                         shards_mod, span_dir: str) -> None:
    """Forked workers dump their spans before acknowledging a drain.

    The server hard-kills a worker right after its ``drained`` reply, so
    the dump happens inside ``conn.send`` of that reply: the wrapper
    around the ``worker_main`` binding hands the worker a connection
    proxy that writes the dump first.
    """
    worker_main = shards_mod.worker_main

    class DumpOnDrain:
        def __init__(self, conn) -> None:
            self._conn = conn

        def send(self, msg) -> None:
            if msg[0] == "drained":
                tracer.dump(
                    os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"))
            self._conn.send(msg)

        def __getattr__(self, attr):
            return getattr(self._conn, attr)

    def traced_worker_main(conn, *args, **kwargs):
        tracer.reset()
        registry.reset()
        return worker_main(DumpOnDrain(conn), *args, **kwargs)

    tracer.patch(shards_mod, "worker_main", traced_worker_main)
