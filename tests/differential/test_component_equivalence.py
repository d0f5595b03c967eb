"""Differential lockdown for the component-architecture refactor.

The substrate boundary was refactored into PAPI-C-style components: the
legacy CPU counter plane became component 0 and two non-CPU components
(uncore, energy) joined it.  The lockdown contract has two clauses, both
bit-exact and both enforced at every engine tier:

- the ``cpu:::`` namespace is an *alias*, not a second path: an
  EventSet built from ``cpu:::``-qualified native names must report the
  same event codes and the same counts as one built from the legacy
  unqualified names;
- component co-members are *invisible* to the CPU plane: adding uncore
  and energy events to an EventSet must not move any CPU member by a
  single count (component snapshots are charge-free reads of
  free-running banks).

Together with ``test_seed_equivalence.py`` -- which replays every E/A
golden table against ``goldens_seed.json`` on the refactored tree --
this pins the whole CPU-component path to the pre-component seed.
"""

from __future__ import annotations

import pytest

from repro.core.library import Papi
from repro.hw.cpu import ENGINE_TIERS as TIERS
from repro.platforms import PLATFORM_NAMES, create
from repro.workloads import conformance_mix

#: CPU members used by the invariance clause; single-native presets
#: that exist on every platform (they fit even simSPARC's two PICs).
CPU_EVENTS = ("PAPI_TOT_INS", "PAPI_TOT_CYC")


def _measure(platform, tier, add):
    """One fresh machine + EventSet; *add* populates the set."""
    substrate = create(platform, engine=tier)
    papi = Papi(substrate)
    if substrate.supports_sampling_counts():
        papi.sampling_period = 64
    es = papi.create_eventset()
    add(papi, es)
    workload = conformance_mix(80, use_fma=substrate.HAS_FMA)
    substrate.machine.load(workload.program)
    es.start()
    substrate.machine.run_to_completion()
    values = dict(zip(es.event_names, es.stop()))
    papi.destroy_eventset(es)
    return values


def _tot_ins_native(platform):
    """The native event name PAPI_TOT_INS maps to on *platform*."""
    papi = Papi(create(platform))
    terms = papi.resolve_terms(papi.event_name_to_code("PAPI_TOT_INS"))
    assert len(terms) == 1
    return terms[0][0].name


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("platform", PLATFORM_NAMES)
def test_cpu_namespace_aliases_legacy_path(platform, tier):
    native = _tot_ins_native(platform)

    legacy = _measure(
        platform, tier,
        lambda papi, es: es.add_event(papi.event_name_to_code(native)),
    )
    qualified = _measure(
        platform, tier,
        lambda papi, es: es.add_named(f"cpu:::{native}"),
    )
    # same code object: the alias resolves to the legacy native code,
    # so the reported names are identical too
    assert list(legacy) == list(qualified) == [native]
    assert legacy[native] == qualified[native]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("platform", PLATFORM_NAMES)
def test_component_members_do_not_move_cpu_counts(platform, tier):
    def cpu_only(papi, es):
        es.add_named(*CPU_EVENTS)

    def mixed(papi, es):
        papi.component("uncore")
        papi.component("energy")
        es.add_named(*CPU_EVENTS)
        es.add_named("uncore:::MEM_BW_RD", "energy:::PKG_ENERGY")

    baseline = _measure(platform, tier, cpu_only)
    with_components = _measure(platform, tier, mixed)
    for symbol in CPU_EVENTS:
        assert with_components[symbol] == baseline[symbol], (
            f"{symbol} moved on {platform}/{tier} when component "
            f"events joined the set"
        )
    # and the component members actually counted something
    assert with_components["energy:::PKG_ENERGY"] > 0
