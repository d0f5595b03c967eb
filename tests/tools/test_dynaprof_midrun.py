"""Regression tests: probe insertion/removal against a *running* machine.

Compiled regions specialize on the probe registry (handlers are
pre-resolved into the generated code), so instrumenting, removing
probes, or mutating the registry from inside a probe handler mid-run
must all invalidate the engines' compiled code.  Every scenario is
checked for bit-exactness across the engine tiers.
"""

import pytest

from repro.hw import Assembler, Machine, MachineConfig
from repro.hw.cpu import ENGINE_TIERS as TIERS
from repro.platforms import create
from repro.tools.dynaprof import Dynaprof, UserProbe
from repro.workloads import demo_app


def _midrun_instrument(engine):
    """Start uninstrumented, attach+instrument at an arbitrary pause."""
    sub = create("simPOWER", engine=engine)
    dyn = Dynaprof(sub)
    dyn.load(demo_app(scale=10))
    sub.machine.run(max_instructions=400)  # engine warm on old code
    dyn.attach()
    calls = []
    dyn.add_probe(UserProbe(entry=lambda fn, cpu: calls.append(fn)))
    dyn.instrument()
    dyn.run()
    return list(sub.machine.counts), calls


def _midrun_remove(engine):
    """Start instrumented, strip every probe at an arbitrary pause."""
    sub = create("simPOWER", engine=engine)
    dyn = Dynaprof(sub)
    dyn.load(demo_app(scale=10))
    calls = []
    dyn.add_probe(UserProbe(entry=lambda fn, cpu: calls.append(fn)))
    dyn.instrument()
    dyn.run(max_instructions=500)  # regions with compiled-in probes ran
    dyn.remove_probes()
    result = sub.machine.run_to_completion()
    assert result.halted
    return list(sub.machine.counts), calls


class TestMidRunInstrument:
    def test_bit_exact_across_tiers(self):
        ref_counts, ref_calls = _midrun_instrument("off")
        assert ref_calls  # probes really fired after mid-run insertion
        for tier in TIERS[1:]:
            counts, calls = _midrun_instrument(tier)
            assert counts == ref_counts, tier
            assert calls == ref_calls, tier


class TestMidRunRemove:
    def test_bit_exact_across_tiers(self):
        ref_counts, ref_calls = _midrun_remove("off")
        assert ref_calls  # probes fired before removal
        for tier in TIERS[1:]:
            counts, calls = _midrun_remove(tier)
            assert counts == ref_counts, tier
            assert calls == ref_calls, tier

    def test_removed_probes_stop_firing(self):
        sub = create("simPOWER", engine="trace")
        dyn = Dynaprof(sub)
        dyn.load(demo_app(scale=10))
        calls = []
        dyn.add_probe(UserProbe(entry=lambda fn, cpu: calls.append(fn)))
        dyn.instrument()
        dyn.run(max_instructions=500)
        dyn.remove_probes()
        fired = len(calls)
        sub.machine.run_to_completion()
        assert len(calls) == fired
        from repro.hw.isa import Op

        assert all(ins.op != Op.PROBE for ins in dyn._program.instructions)

    def test_remove_before_start_strips_program(self):
        sub = create("simPOWER", engine="trace")
        dyn = Dynaprof(sub)
        dyn.load(demo_app(scale=10))
        dyn.instrument()
        dyn.remove_probes()
        from repro.hw.events import Signal

        sub.machine.run_to_completion()
        assert sub.machine.counts[Signal.PRB_INS] == 0

    def test_remove_without_instrument_rejected(self):
        from repro.core.errors import InvalidArgumentError

        sub = create("simPOWER", engine="trace")
        dyn = Dynaprof(sub)
        dyn.load(demo_app(scale=10))
        with pytest.raises(InvalidArgumentError):
            dyn.remove_probes()

    def test_reinstrument_after_remove(self):
        sub = create("simPOWER", engine="trace")
        dyn = Dynaprof(sub)
        dyn.load(demo_app(scale=10))
        calls = []
        dyn.add_probe(UserProbe(entry=lambda fn, cpu: calls.append(fn)))
        dyn.instrument()
        dyn.remove_probes()
        dyn.instrument()
        dyn.run()
        assert calls


def _probe_loop_program(n=3000):
    asm = Assembler(name="reg-mut")
    asm.func("main")
    asm.li("r1", 0)
    asm.li("r2", n)
    asm.label("loop")
    asm.probe(1)
    asm.addi("r4", "r4", 7)
    asm.addi("r1", "r1", 1)
    asm.blt("r1", "r2", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


class TestHandlerMutatesRegistry:
    """A handler that changes the probe registry invalidates the region
    it is running inside; execution continues precisely."""

    def _run(self, engine):
        m = Machine(MachineConfig(engine=engine))
        m.load(_probe_loop_program())
        seen = [0]

        def handler(pid, cpu):
            seen[0] += 1
            if seen[0] == 1000:
                m.register_probe(99, lambda p, c: None)
            elif seen[0] == 2000:
                m.unregister_probe(99)

        m.register_probe(1, handler)
        result = m.run_to_completion()
        assert result.halted
        return list(m.counts), seen[0]

    def test_bit_exact_across_tiers(self):
        ref = self._run("off")
        for tier in TIERS[1:]:
            assert self._run(tier) == ref, tier
