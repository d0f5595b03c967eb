"""Model-mutant catalogue for the sensitivity gate.

"Zero refutations" on the clean substrates is only evidence if the
harness demonstrably *can* refute: these mutants each perturb one
documented-model constant -- an access cost, the L1I line width, a
preset signal vector -- in exactly the way real documentation drifts
(the paper's Section 4 POWER3 ``PM_FPU_INS`` convert-counting
discrepancy was such a drift, found by hand).  The sensitivity tests
(``tests/refute/test_sensitivity.py``) run the engine with each mutant
model against the *unmodified* machine and require a refutation at the
committed seed/budget; a mutant that survives means the harness has a
blind spot and the gate fails.

Mutants are test infrastructure: the engine's ``models`` override hook
accepts them, but no CLI path exposes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.hw.events import Signal
from repro.refute.predictor import SubstrateModel

__all__ = ["MUTANTS", "ModelMutant"]


@dataclass(frozen=True)
class ModelMutant:
    """One deliberate documentation error, as a model transformer."""

    name: str
    platform: str
    #: the generator assumption tag that can expose this mutant; the
    #: sensitivity gate checks the committed corpus exercises it.
    assumption: str
    description: str
    apply: Callable[[SubstrateModel], SubstrateModel]

    def mutate(self, model: SubstrateModel) -> SubstrateModel:
        if model.platform != self.platform:
            raise ValueError(
                f"mutant {self.name} targets {self.platform}, "
                f"got {model.platform}"
            )
        return self.apply(model)


def _t3e_read_cost(model: SubstrateModel) -> SubstrateModel:
    # Claim the register read costs 2 cycles more than it does: the
    # documented AccessCosts disagree with the measured interface deltas.
    return model.with_costs(read=model.costs.read + 2)


def _x86_fetch_line(model: SubstrateModel) -> SubstrateModel:
    # Halve the documented L1I line width (an off-by-one in line_bits):
    # predicted fetch-line transitions now overcount every straight-line
    # run longer than 16 bytes.
    return model.with_line_bytes(model.l1i_line_bytes // 2)


def _power_fpu_drops_cvt(model: SubstrateModel) -> SubstrateModel:
    # Undocument the POWER3 quirk: pretend PM_FPU_INS does NOT count
    # precision converts.  Any program with an fp_cvt refutes this --
    # the exact discrepancy Section 4 reports finding the hard way.
    quirky = model.native_signals["PM_FPU_INS"]
    return model.with_native_signals(
        "PM_FPU_INS",
        tuple(s for s in quirky if s != Signal.FP_CVT),
    )


def _t3e_ld_st_swap(model: SubstrateModel) -> SubstrateModel:
    # Mis-map the load event onto the store signal: refuted by any
    # program whose load and store counts differ.
    return model.with_native_signals("LD_QW", (Signal.SR_INS,))


def _alpha_loads_as_ins(model: SubstrateModel) -> SubstrateModel:
    # Document the load event as counting every retired instruction:
    # the ProfileMe estimate of PAPI_LD_INS then misses the model by far
    # more than the sampling tolerance, so this mutant is the one whose
    # refutation and shrink go through the sampling check.
    return model.with_native_signals("RET_LOADS", (Signal.TOT_INS,))


MUTANTS: Tuple[ModelMutant, ...] = (
    ModelMutant(
        name="t3e-read-cost",
        platform="simT3E",
        assumption="cost-model",
        description="simT3E documented read cost inflated by 2 cycles",
        apply=_t3e_read_cost,
    ),
    ModelMutant(
        name="x86-fetch-line",
        platform="simX86",
        assumption="fetch-geometry",
        description="simX86 documented L1I line width halved (32 -> 16B)",
        apply=_x86_fetch_line,
    ),
    ModelMutant(
        name="power-fpu-drops-cvt",
        platform="simPOWER",
        assumption="preset-mapping",
        description="simPOWER PM_FPU_INS documented without FP_CVT",
        apply=_power_fpu_drops_cvt,
    ),
    ModelMutant(
        name="t3e-ld-st-swap",
        platform="simT3E",
        assumption="preset-mapping",
        description="simT3E LD_QW documented as counting stores",
        apply=_t3e_ld_st_swap,
    ),
    ModelMutant(
        name="alpha-loads-as-ins",
        platform="simALPHA",
        assumption="preset-mapping",
        description="simALPHA RET_LOADS documented as counting every "
                    "retired instruction",
        apply=_alpha_loads_as_ins,
    ),
)
