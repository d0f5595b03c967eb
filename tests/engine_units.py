"""Fresh-emission checks for the engine's unit cache.

A unit a machine bound from a cached template must equal the unit a
fresh emission would give that machine: the same code object, the same
bound objects and the same static facts.  Shared by the block-engine
tests and properties.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.hw import blockcache
from repro.hw.blockcache import MAX_UNITS, UnitCache


def fresh(compile_unit, *args):
    """*compile_unit*(*args) against an empty unit cache: a fresh emission."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blockcache, "UNIT_CACHE", UnitCache(MAX_UNITS))
        return compile_unit(*args)


def assert_same_unit(warm, cold):
    """Equal code, facts and bound globals (the very same objects)."""
    assert warm.fn.__code__ == cold.fn.__code__
    assert warm.fn.__code__.co_filename == cold.fn.__code__.co_filename
    gw, gc = warm.fn.__globals__, cold.fn.__globals__
    assert gw.keys() == gc.keys()
    assert all(gw[k] is gc[k] for k in gw)
    assert dataclasses.replace(warm, fn=None) == dataclasses.replace(cold, fn=None)


def assert_units_fresh(m):
    """Each unit in the table of *m*'s code equals a fresh emission for
    *m*; returns the numbers of blocks and regions checked."""
    cpu, engine = m.cpu, m.cpu.engine
    table = engine._tables.get(id(cpu.code))
    if table is None:
        return 0, 0
    compiler = engine.compiler
    for pc, block in table.blocks.items():
        assert_same_unit(block, fresh(compiler.compile_block, table.code, pc))
    for head, region in table.regions.items():
        assert_same_unit(region, fresh(compiler.compile_region, table.code,
                                       head, cpu.predictor, engine))
    return len(table.blocks), len(table.regions)
