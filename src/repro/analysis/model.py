"""Predictive performance models parameterized from PAPI data.

Section 5: "we plan to collaborate with performance modeling projects
such as that described in [Snavely et al., SC 2002] in using PAPI to
collect data for parameterizing predictive performance models."

This module is that collaboration in miniature: collect per-workload
counter vectors through the portable PAPI interface, fit a linear
cycles model

    cycles  ~=  sum_m  coef_m * count_m

by least squares, and predict the runtime of unseen workloads from their
counter signatures alone.  On the simulated machines the true cost
function *is* linear in instruction/miss/mispredict counts, so a
well-chosen feature set recovers the machine's latency parameters --
which makes the model a sharp end-to-end test of counter fidelity, too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calibrate import run_measured
from repro.core.library import Papi
from repro.platforms import create
from repro.workloads.builder import Workload

#: feature set available on every direct-counting platform.
DEFAULT_FEATURES = [
    "PAPI_TOT_INS",
    "PAPI_FP_OPS",
    "PAPI_L1_DCM",
    "PAPI_L2_TCM",
    "PAPI_BR_MSP",
]


def collect_counters(
    platform_name: str,
    workload_factory: Callable[[], Workload],
    metrics: Sequence[str],
    seed: int = 12345,
) -> Tuple[Dict[str, int], int]:
    """Measure *metrics* plus cycles for one workload.

    One deterministic run per metric (plus one for cycles), so arbitrary
    metric sets work on any platform regardless of counter limits --
    the same repeated-identical-runs trick TAU-style tools use.
    """
    values: Dict[str, int] = {}
    for metric in list(metrics) + ["PAPI_TOT_CYC"]:
        papi = Papi(create(platform_name, seed=seed))
        values[metric] = run_measured(
            papi, workload_factory().program, [metric]
        )[metric]
    cycles = values.pop("PAPI_TOT_CYC")
    return values, cycles


@dataclass
class PerformanceModel:
    """A fitted linear cycles model."""

    platform: str
    features: List[str]
    coefficients: Dict[str, float]
    r_squared: float
    n_observations: int

    def predict(self, counters: Dict[str, int]) -> float:
        """Predicted cycles for a workload with the given counter vector."""
        missing = [f for f in self.features if f not in counters]
        if missing:
            raise ValueError(f"counter vector is missing {missing}")
        return sum(self.coefficients[f] * counters[f] for f in self.features)

    def relative_error(self, counters: Dict[str, int], cycles: int) -> float:
        if cycles <= 0:
            raise ValueError("true cycles must be positive")
        return abs(self.predict(counters) - cycles) / cycles

    def describe(self) -> str:
        terms = " + ".join(
            f"{self.coefficients[f]:.3g}*{f.replace('PAPI_', '')}"
            for f in self.features
        )
        return (
            f"cycles[{self.platform}] ~= {terms}   "
            f"(R^2={self.r_squared:.4f}, n={self.n_observations})"
        )


def fit_model(
    platform: str,
    observations: Sequence[Tuple[Dict[str, int], int]],
    features: Optional[Sequence[str]] = None,
) -> PerformanceModel:
    """Least-squares fit of cycles on counter features.

    *observations* are (counter vector, measured cycles) pairs, e.g.
    from :func:`collect_counters` over a training workload suite.
    """
    feats = list(features or DEFAULT_FEATURES)
    if len(observations) < len(feats):
        raise ValueError(
            f"need at least {len(feats)} observations to fit "
            f"{len(feats)} coefficients, got {len(observations)}"
        )
    X = np.array(
        [[obs[f] for f in feats] for obs, _cyc in observations], dtype=float
    )
    y = np.array([cyc for _obs, cyc in observations], dtype=float)
    coef, _residuals, _rank, _sv = np.linalg.lstsq(X, y, rcond=None)
    predictions = X @ coef
    ss_res = float(np.sum((y - predictions) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PerformanceModel(
        platform=platform,
        features=feats,
        coefficients=dict(zip(feats, map(float, coef))),
        r_squared=r2,
        n_observations=len(observations),
    )


def standard_training_suite() -> List[Tuple[str, Callable[..., Workload]]]:
    """A diverse workload suite for model fitting.

    Mixes compute-bound, bandwidth-bound, latency-bound and
    branch-bound kernels so the design matrix spans the feature space.
    """
    from repro.workloads import (
        axpy,
        dot,
        matmul,
        pointer_chase,
        random_branches,
        strided_scan,
        triad,
        working_set_sweep,
    )

    return [
        ("dot-small", lambda fma: dot(600, use_fma=fma)),
        ("dot-large", lambda fma: dot(4000, use_fma=fma)),
        ("axpy", lambda fma: axpy(2500, use_fma=fma)),
        ("triad", lambda fma: triad(2500, use_fma=fma)),
        ("matmul", lambda fma: matmul(14, use_fma=fma)),
        ("chase", lambda fma: pointer_chase(4096, steps=3000)),
        ("scan-unit", lambda fma: strided_scan(6000, 1, passes=2)),
        ("scan-stride", lambda fma: strided_scan(6000, 8, passes=2)),
        ("sweep", lambda fma: working_set_sweep(3000, passes=3)),
        ("branches", lambda fma: random_branches(4000)),
    ]


def fit_platform_model(
    platform: str,
    features: Optional[Sequence[str]] = None,
) -> Tuple[PerformanceModel, List[Tuple[str, Dict[str, int], int]]]:
    """Fit the standard suite on *platform*; returns (model, raw data)."""
    feats = list(features or DEFAULT_FEATURES)
    substrate = create(platform)
    fma = substrate.HAS_FMA
    data: List[Tuple[str, Dict[str, int], int]] = []
    for name, factory in standard_training_suite():
        counters, cycles = collect_counters(
            platform, lambda f=factory: f(fma), feats
        )
        data.append((name, counters, cycles))
    model = fit_model(
        platform, [(c, cyc) for _n, c, cyc in data], features=feats
    )
    return model, data
