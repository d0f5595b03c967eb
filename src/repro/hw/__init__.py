"""Simulated hardware substrate.

This subpackage implements the machine-dependent layer that PAPI sits on
top of: a deterministic instruction-level machine simulator consisting of

- an ISA, assembler and program representation (:mod:`repro.hw.isa`),
- set-associative caches and a TLB (:mod:`repro.hw.cache`),
- branch predictors (:mod:`repro.hw.branch`),
- the catalogue of microarchitectural event *signals*
  (:mod:`repro.hw.events`),
- a performance monitoring unit with a limited number of physical counter
  registers, overflow interrupts, sampling hardware and event address
  registers (:mod:`repro.hw.pmu`),
- the interpreter CPU that executes programs and raises event signals
  (:mod:`repro.hw.cpu`),
- a basic-block execution engine that compiles decoded blocks and hot
  loops into Python functions, bit-exactly (:mod:`repro.hw.blockcache`),
  and
- the :class:`~repro.hw.machine.Machine` that wires all of the above
  together (:mod:`repro.hw.machine`).

Real hardware counters are registers incremented by event signals wired
out of the pipeline; the simulator generates exactly those signals from
real (simulated) program executions, so everything the paper observes
about counters -- multiplexing error, overflow profiles, attribution skid,
measurement perturbation -- emerges from genuine program behaviour.
"""

from repro.hw.blockcache import BlockEngine, EngineStats
from repro.hw.cache import Cache, CacheConfig, TLB, TLBConfig
from repro.hw.cpu import CPU, CPUConfig
from repro.hw.events import Signal, SIGNAL_NAMES, signal_name
from repro.hw.isa import (
    Assembler,
    Instruction,
    Op,
    Program,
    ProgramError,
)
from repro.hw.machine import Machine, MachineConfig
from repro.hw.pmu import (
    PMU,
    PMUConfig,
    CounterControl,
    EventAddressRegister,
    OverflowRecord,
    ProfileMeSampler,
    SampleRecord,
)

__all__ = [
    "Assembler",
    "BlockEngine",
    "CPU",
    "CPUConfig",
    "EngineStats",
    "Cache",
    "CacheConfig",
    "CounterControl",
    "EventAddressRegister",
    "Instruction",
    "Machine",
    "MachineConfig",
    "Op",
    "OverflowRecord",
    "PMU",
    "PMUConfig",
    "Program",
    "ProgramError",
    "ProfileMeSampler",
    "SampleRecord",
    "Signal",
    "SIGNAL_NAMES",
    "TLB",
    "TLBConfig",
    "signal_name",
]
