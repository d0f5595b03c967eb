"""The flush-before-read barrier: counter reads drain the block engine.

``PMU.read`` must observe every effect of instructions retired so far --
including instructions the block engine retired through compiled blocks
or regions.  The engine commits synchronously, and the PMU's flush hook
is the enforcement point; these tests pin both the hook wiring and the
end-to-end guarantee for reads issued *mid-loop* (from a probe handler
firing inside a hot loop, the paper's PAPI_read-in-inner-loop pattern,
E7).
"""

from __future__ import annotations

import pytest

from repro.core.highlevel import HighLevel
from repro.core.library import Papi
from repro.hw import Assembler, Machine, MachineConfig, Signal
from repro.platforms import create


def probed_loop(n=400):
    """A hot counted loop whose body fires probe 1 every iteration."""
    asm = Assembler(name="probed_loop")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.fli("f1", 1.5)
    asm.label("loop")
    asm.probe(1)
    asm.fma("f3", "f1", "f1", "f3")
    asm.addi("r4", "r4", 2)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


class TestFlushHook:
    def test_read_invokes_engine_flush(self):
        m = Machine(MachineConfig(engine="trace"))
        m.load(probed_loop(10))
        m.pmu.program(0, [Signal.TOT_INS])
        m.pmu.start(0)
        before = m.engine_stats().flushes
        m.pmu.read(0)
        assert m.engine_stats().flushes == before + 1

    def test_stop_invokes_engine_flush(self):
        m = Machine(MachineConfig(engine="trace"))
        m.load(probed_loop(10))
        m.pmu.program(0, [Signal.TOT_INS])
        m.pmu.start(0)
        before = m.engine_stats().flushes
        m.pmu.stop(0)
        assert m.engine_stats().flushes == before + 1

    def test_read_after_replay_sees_all_instructions(self):
        """A read right after a compiled loop must include every retired
        op, the ones a region's deferred counts cover included."""
        asm = Assembler(name="tight")
        asm.label("main")
        asm.li("r1", 0)
        asm.li("r2", 50_000)
        asm.label("loop")
        asm.addi("r1", "r1", 1)
        asm.blt("r1", "r2", "loop")
        asm.halt()
        prog = asm.build()

        m = Machine(MachineConfig(engine="trace"))
        m.load(prog)
        m.pmu.program(0, [Signal.TOT_INS])
        m.pmu.start(0)
        m.run_to_completion()
        assert m.engine_stats().region_instructions > 0
        assert m.pmu.read(0) == m.counts[Signal.TOT_INS]


class TestMidLoopHighLevelRead:
    """core/highlevel.read issued from inside a running loop."""

    @pytest.mark.parametrize("compiled", [False, True])
    def test_read_counters_mid_loop_monotone(self, compiled):
        sub = create("simPOWER", engine="trace" if compiled else "off")
        hl = HighLevel(Papi(sub))
        prog = probed_loop(200)
        sub.machine.load(prog)

        readings = []
        sub.machine.register_probe(
            1, lambda pid, cpu: readings.append(hl.read_counters()[0])
        )
        hl.start_counters(["PAPI_TOT_INS"])
        sub.machine.run_to_completion()
        hl.stop_counters()
        assert len(readings) == 200
        # read_counters resets: each reading covers one loop iteration
        # (plus interface overhead), so all mid-loop readings past the
        # first are identical -- any stale window would break this.
        assert len(set(readings[1:])) == 1

    def test_mid_loop_readings_identical_engine_on_off(self):
        per_engine = {}
        for engine in ("off", "trace"):
            sub = create("simX86", engine=engine)
            hl = HighLevel(Papi(sub))
            sub.machine.load(probed_loop(150))
            readings = []
            sub.machine.register_probe(
                1, lambda pid, cpu: readings.append(tuple(hl.read_counters()))
            )
            hl.start_counters(["PAPI_TOT_INS", "PAPI_TOT_CYC"])
            sub.machine.run_to_completion()
            final = hl.stop_counters()
            per_engine[engine] = (readings, final, list(sub.machine.counts))
        assert per_engine["trace"] == per_engine["off"]
