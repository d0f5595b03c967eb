"""Tools built on PAPI, as described in Sections 2-3 of the paper.

- :mod:`~repro.tools.dynaprof`: dynamic probe insertion (PAPI probe,
  wallclock probe, user probes; load or attach);
- :mod:`~repro.tools.perfometer`: real-time metric monitoring with trace
  files and an ASCII front-end (Figure 2);
- :mod:`~repro.tools.papirun`: run-and-report convenience utility
  (the Section-5 plan);
- :mod:`~repro.tools.profiler`: TAU/VProf-style multi-metric
  inclusive/exclusive function profiles with derived ratios;
- :mod:`~repro.tools.tracer`: Vampir-style timestamped event tracing
  with merge and export;
- :mod:`~repro.tools.vprof`: VProf-style source annotation (profiles
  correlated with the program listing);
- :mod:`~repro.tools.cli`: papi_avail / papi_native_avail / papirun /
  calibrate command-line utilities.
"""

from repro.tools.dynaprof import (
    Dynaprof,
    FunctionProfile,
    PapiProbe,
    Probe,
    UserProbe,
    WallclockProbe,
)
from repro.tools.papirun import DEFAULT_EVENTS, PapirunResult, papirun
from repro.tools.perfometer import (
    Perfometer,
    PerfometerProbe,
    PerfometerTrace,
    TracePoint,
)
from repro.tools.profiler import ProfileReport, Profiler
from repro.tools.sampling_probe import SamplingPapiProbe
from repro.tools.tracer import Trace, TraceKind, TraceRecord, TracerProbe
from repro.tools.vprof import SourceAnnotation, annotate

__all__ = [
    "DEFAULT_EVENTS",
    "Dynaprof",
    "FunctionProfile",
    "PapiProbe",
    "SourceAnnotation",
    "annotate",
    "PapirunResult",
    "Perfometer",
    "PerfometerProbe",
    "PerfometerTrace",
    "Probe",
    "ProfileReport",
    "Profiler",
    "SamplingPapiProbe",
    "Trace",
    "TraceKind",
    "TracePoint",
    "TraceRecord",
    "TracerProbe",
    "UserProbe",
    "WallclockProbe",
    "papirun",
]
