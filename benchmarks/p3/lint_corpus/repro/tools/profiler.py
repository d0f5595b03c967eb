"""A TAU/VProf-style multi-metric profiler built on dynaprof + PAPI.

Section 3: "If TAU is configured with the multiple counters option, then
up to 25 metrics may be specified and a separate profile generated for
each.  These profiles for the same run can then be compared to see
important correlations, such as for example the correlation of time with
operation counts and cache or TLB misses."

Metrics are measured in *batches*: each batch is a set of presets that
the platform's counters can host simultaneously (found with the real
allocator); every batch is a separate run on a fresh machine, and
because the simulator is deterministic the runs are identical -- which
is exactly the property tool developers rely on when they merge profiles
from repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import Table
from repro.analysis.stats import pearson, rank_by
from repro.core import constants as C
from repro.core.errors import InvalidArgumentError
from repro.core.library import Papi
from repro.platforms import create
from repro.tools.dynaprof import Dynaprof, PapiProbe
from repro.workloads.builder import Workload


@dataclass
class ProfileReport:
    """Per-function, per-metric exclusive and inclusive totals."""

    platform: str
    metrics: List[str]
    functions: List[str]
    exclusive: Dict[str, Dict[str, float]] = field(default_factory=dict)
    inclusive: Dict[str, Dict[str, float]] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def metric_by_function(self, metric: str,
                           inclusive: bool = False) -> Dict[str, float]:
        table = self.inclusive if inclusive else self.exclusive
        return {fn: table.get(fn, {}).get(metric, 0.0) for fn in self.functions}

    def hottest(self, metric: str) -> str:
        """Function with the largest exclusive share of *metric*."""
        ranked = rank_by(self.metric_by_function(metric))
        return ranked[0][0]

    def correlation(self, metric_a: str, metric_b: str) -> float:
        """Cross-function correlation of two metrics (Section 3)."""
        xs = [self.exclusive.get(fn, {}).get(metric_a, 0.0)
              for fn in self.functions]
        ys = [self.exclusive.get(fn, {}).get(metric_b, 0.0)
              for fn in self.functions]
        return pearson(xs, ys)

    def derived_ratio(self, numerator: str, denominator: str
                      ) -> Dict[str, float]:
        """Event-based ratios per function (e.g. misses per instruction)."""
        num = self.metric_by_function(numerator)
        den = self.metric_by_function(denominator)
        return {
            fn: (num[fn] / den[fn] if den[fn] else 0.0)
            for fn in self.functions
        }

    def to_text(self, inclusive: bool = False) -> str:
        kind = "inclusive" if inclusive else "exclusive"
        table = Table(
            ["function", "calls"] + self.metrics,
            title=f"profile [{self.platform}] ({kind})",
        )
        source = self.inclusive if inclusive else self.exclusive
        for fn in self.functions:
            row = source.get(fn, {})
            table.add_row(
                fn, self.calls.get(fn, 0),
                *[row.get(m, 0.0) for m in self.metrics],
            )
        return table.render()


class Profiler:
    """Multi-metric function profiler for one platform."""

    def __init__(self, platform_name: str, metrics: Sequence[str],
                 seed: int = 12345) -> None:
        if not metrics:
            raise InvalidArgumentError("need at least one metric")
        if len(metrics) > C.PAPI_MAX_TOOL_METRICS:
            raise InvalidArgumentError(
                f"at most {C.PAPI_MAX_TOOL_METRICS} metrics are supported "
                f"(the TAU limit)"
            )
        self.platform_name = platform_name
        self.metrics = list(metrics)
        self.seed = seed

    # ------------------------------------------------------------------

    def _batches(self) -> List[List[str]]:
        """Split metrics into counter-feasible batches using a probe
        EventSet on a scratch substrate (the allocator does the work)."""
        scratch = create(self.platform_name, seed=self.seed)
        papi = Papi(scratch)
        batches: List[List[str]] = []
        remaining = list(self.metrics)
        while remaining:
            es = papi.create_eventset()
            batch: List[str] = []
            rest: List[str] = []
            for name in remaining:
                try:
                    es.add_event(papi.event_name_to_code(name))
                    batch.append(name)
                except Exception:
                    rest.append(name)
            papi.destroy_eventset(es)
            if not batch:
                raise InvalidArgumentError(
                    f"metrics {rest} cannot be counted on {self.platform_name}"
                )
            batches.append(batch)
            remaining = rest
        return batches

    def profile(self, make_workload, functions: Optional[Sequence[str]] = None
                ) -> ProfileReport:
        """Profile the workload produced by *make_workload()*.

        *make_workload* is a zero-argument factory so each batch gets an
        identical fresh program (determinism across batch runs).
        """
        batches = self._batches()
        merged_excl: Dict[str, Dict[str, float]] = {}
        merged_incl: Dict[str, Dict[str, float]] = {}
        calls: Dict[str, int] = {}
        fn_order: List[str] = []

        for batch in batches:
            substrate = create(self.platform_name, seed=self.seed)
            papi = Papi(substrate)
            dyn = Dynaprof(substrate, papi)
            workload = make_workload()
            program = (
                workload.program if isinstance(workload, Workload) else workload
            )
            dyn.load(program)
            probe = dyn.add_probe(PapiProbe(papi, batch))
            dyn.instrument(functions)
            dyn.run()
            for name, prof in probe.profiles.items():
                if name not in fn_order:
                    fn_order.append(name)
                merged_excl.setdefault(name, {}).update(prof.exclusive)
                merged_incl.setdefault(name, {}).update(prof.inclusive)
                calls[name] = prof.calls

        return ProfileReport(
            platform=self.platform_name,
            metrics=self.metrics,
            functions=fn_order,
            exclusive=merged_excl,
            inclusive=merged_incl,
            calls=calls,
        )
