"""Simulated platform substrates.

One substrate per platform family the paper discusses, each with its own
native event table, counter geometry/constraints, access-cost model and
interface style:

=========  ==========  =========  ========================================
platform   interface   counters   modelled after
=========  ==========  =========  ========================================
simT3E     register    4, free    Cray T3E (Alpha 21164) register access
simX86     syscall     2, pairs   Linux/x86 kernel-patch (perfctr) P6
simPOWER   library     8, groups  IBM AIX pmtoolkit / POWER3
simALPHA   sampling    --         Tru64 DCPI/DADD ProfileMe sampling
simIA64    syscall     4, light   Itanium2 perfmon with EARs
simSPARC   library     2, pinned  Sun Solaris libcpc / UltraSPARC-II PICs
=========  ==========  =========  ========================================

Use :func:`create` to instantiate one by name.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Type

from repro.platforms.base import (
    AccessCosts,
    CounterGroup,
    NativeEvent,
    Substrate,
    SubstrateError,
)
from repro.platforms.simalpha import SamplingSession, SimALPHA
from repro.platforms.simia64 import SimIA64
from repro.platforms.simpower import SimPOWER
from repro.platforms.simsparc import SimSPARC
from repro.platforms.simt3e import SimT3E
from repro.platforms.simx86 import SimX86

_REGISTRY: Dict[str, Type[Substrate]] = {
    cls.NAME: cls
    for cls in (SimT3E, SimX86, SimPOWER, SimALPHA, SimIA64, SimSPARC)
}

#: Canonical platform order used by tables and the portability matrix.
PLATFORM_NAMES: List[str] = [
    "simT3E", "simX86", "simPOWER", "simALPHA", "simIA64", "simSPARC"
]

#: Platforms that support direct counting (everything but simALPHA).
DIRECT_PLATFORMS: List[str] = [
    name for name in PLATFORM_NAMES if _REGISTRY[name].COUNTING == "direct"
]


def create(name: str, seed: int = 12345, ncpus: int = 1,
           inject: Optional[str] = None, engine: str = "trace") -> Substrate:
    """Instantiate the named platform substrate.

    ``engine`` selects the execution-engine tier (see
    :class:`repro.hw.machine.MachineConfig`): ``"off"`` (the
    pure-interpreter reference path) or ``"trace"`` (compiled blocks
    and compiled loop regions, the default).
    Results are bit-identical at both tiers; only simulation speed
    differs.

    ``ncpus`` builds an SMP machine: that many CPUs, each with a private
    PMU and block engine, behind one shared memory hierarchy.  The OS
    scheduler then dispatches threads across all of them, migrating
    bound counters so per-thread counts stay exact (``ncpus=1`` is
    bit-exact with the historical single-CPU substrate).

    ``inject`` attaches a deterministic fault injector from a
    ``seed:profile`` spec (see :mod:`repro.faults`).  When ``None``, the
    ``REPRO_FAULT_PROFILE`` environment variable is consulted instead
    (the CI chaos knob); an unset variable leaves the substrate on the
    byte-identical clean path.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise SubstrateError(
            f"unknown platform {name!r}; known: {PLATFORM_NAMES}"
        ) from None
    substrate = cls(seed=seed, ncpus=ncpus, engine=engine)
    spec = inject if inject is not None else os.environ.get(
        "REPRO_FAULT_PROFILE"
    )
    if spec:
        from repro.faults import attach_from_spec

        attach_from_spec(substrate, spec)
    return substrate


def all_platforms(seed: int = 12345) -> List[Substrate]:
    """One instance of every platform (fresh machines)."""
    return [create(name, seed=seed) for name in PLATFORM_NAMES]


__all__ = [
    "AccessCosts",
    "CounterGroup",
    "DIRECT_PLATFORMS",
    "NativeEvent",
    "PLATFORM_NAMES",
    "SamplingSession",
    "SimALPHA",
    "SimIA64",
    "SimPOWER",
    "SimSPARC",
    "SimT3E",
    "SimX86",
    "Substrate",
    "SubstrateError",
    "all_platforms",
    "create",
]
