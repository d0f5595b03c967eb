"""papi-validate: conformance & accuracy harness for the whole stack.

The paper's central "lessons learned" are about *trusting the numbers*:
per-platform event-semantics drift (the POWER3 rounding-instruction
discrepancy), API overhead and measurement perturbation, multiplexed
estimates that are wrong on short runs, and profiling attribution skid
on out-of-order CPUs.  Real PAPI ships ``papi_cost`` and a validation
suite for exactly this reason; this package is their analogue over the
simulated platforms.

The planes, aggregated into one conformance matrix
(:mod:`repro.validate.matrix`, CLI verb ``validate``):

- **oracle** (:mod:`repro.validate.oracle`,
  :mod:`repro.validate.conformance`): an independent reference
  interpreter derives exact expected counts for every architecturally
  determined signal; hardware counts, preset translations and
  attached/SMP-virtualized reads are checked cell by cell against it;
- **components** (:mod:`repro.validate.components`): mixed
  CPU/uncore/energy EventSets checked clause by clause -- CPU members
  against the oracle, uncore bandwidth against oracle store counts,
  energy parts against their closed forms and their package sum, and
  the uncore bank's within-component rotation / capacity refusal;
- **cost** (:mod:`repro.validate.cost`): the ``papi_cost`` analogue --
  start/read/reset/stop overhead in simulated cycles per substrate,
  checked against each substrate's published
  :class:`~repro.platforms.base.AccessCosts` model, plus the retry
  ladder's billed cycles under fault injection;
- **convergence** (:mod:`repro.validate.convergence`): multiplexed runs
  swept across runtime lengths, per-event relative-error-vs-duration
  curves, flagging the short-run hazard of Section 3;
- **skid** (:mod:`repro.validate.skid`): ``PAPI_profil`` attribution
  accuracy per substrate skid model, contrasting precise sampling
  (simALPHA's ProfileMe) with interrupt-pc profiling on out-of-order
  cores;
- **refute** (:mod:`repro.refute`): the adversarial inversion of the
  oracle plane -- seeded generated micro-programs hunt for
  model/measurement disagreements across substrates, engine tiers and
  CPU counts, shrinking any hit to a minimal reproducer.

Every plane's randomness hangs off one master ``--seed`` through
:func:`repro.validate.seeds.derive_seed` (labels ``plane:<name>``), so
a matrix run is pinned by a single documented integer.
"""

from repro.validate.components import run_components_plane
from repro.validate.conformance import run_oracle_plane, run_virtualization_plane
from repro.validate.convergence import run_convergence_plane
from repro.validate.cost import run_cost_plane
from repro.validate.matrix import ConformanceMatrix, run_all
from repro.validate.seeds import derive_seed
from repro.validate.oracle import (
    ORACLE_SIGNALS,
    OracleError,
    expected_preset_values,
    expected_signal_counts,
)
from repro.validate.skid import run_skid_plane

__all__ = [
    "ORACLE_SIGNALS",
    "OracleError",
    "ConformanceMatrix",
    "derive_seed",
    "expected_preset_values",
    "expected_signal_counts",
    "run_all",
    "run_components_plane",
    "run_convergence_plane",
    "run_cost_plane",
    "run_oracle_plane",
    "run_skid_plane",
    "run_virtualization_plane",
]
