"""Shared fixtures and hypothesis profiles for the test suite.

Hypothesis profiles (select with ``HYPOTHESIS_PROFILE=<name>`` or the
``REPRO_PROPERTY_EXAMPLES=<n>`` scale knob):

- ``ci`` (default): fully deterministic -- ``derandomize=True`` plus a
  fixed database-free configuration, so a property failure on one CI
  run reproduces identically on every re-run and on every machine;
- ``thorough``: the same determinism at ``REPRO_PROPERTY_EXAMPLES``
  examples per property (default 500) -- the separate CI property job
  runs this.  A per-test ``@settings(max_examples=N)`` replaces the
  profile's count rather than bounding it from below, so a suite that
  pins N and should still scale passes ``examples(N)`` from
  ``tests/property_examples.py``: N by default, the knob's value when
  that is larger (the engine and papid property suites do).

Fault injection (``REPRO_FAULT_PROFILE=<seed>:<profile>``): every
substrate built through :func:`repro.platforms.create` gets a
deterministic fault injector attached, so the whole suite runs under a
fixed chaos schedule (the CI chaos job sets ``97:transient``).  Unset,
substrates stay on the byte-identical clean path.  ``tests/faults`` and
the fault property machine scrub the knob locally because they seed
their own injectors.

Timeouts: the CI chaos job runs with ``pytest-timeout`` installed and
``--timeout=<s>``; when the plugin is absent (the default local
environment) a SIGALRM-based fallback below honours the same option so
a fault-wedged test still fails instead of hanging.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings

from repro.hw import Assembler, Machine
from repro.hw.machine import MachineConfig
from repro.platforms import PLATFORM_NAMES, create
from tests.property_examples import EXAMPLES as _EXAMPLES

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile(
    "thorough",
    derandomize=True,
    deadline=None,
    max_examples=_EXAMPLES if _EXAMPLES > 0 else 500,
    print_blob=True,
)
settings.load_profile(
    os.environ.get(
        "HYPOTHESIS_PROFILE", "thorough" if _EXAMPLES > 0 else "ci"
    )
)

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addoption(
            "--timeout",
            type=float,
            default=0,
            help="per-test timeout in seconds (SIGALRM fallback; install "
                 "pytest-timeout for the full implementation)",
        )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timeout(seconds): per-test timeout override"
    )


@pytest.fixture(autouse=True)
def _sigalrm_timeout(request):
    """Poor man's pytest-timeout: arm SIGALRM around each test.

    Only active when the real plugin is missing, ``--timeout`` was
    given, and we are on the main thread of a platform with SIGALRM.
    """
    seconds = 0.0
    if not _HAVE_PYTEST_TIMEOUT:
        seconds = request.config.getoption("--timeout", default=0) or 0
        marker = request.node.get_closest_marker("timeout")
        if marker and marker.args:
            seconds = float(marker.args[0])
    if (
        seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds:g}s timeout (--timeout)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def machine() -> Machine:
    """A default machine (generic config, 4 counters, no sampling hw)."""
    return Machine(MachineConfig())


@pytest.fixture
def fma_loop_program():
    """1000-iteration FMA/store loop with exactly known counts."""
    asm = Assembler(name="fma_loop")
    asm.func("main")
    asm.li("r1", 1000)
    asm.li("r2", 0)
    base = asm.reserve_data(2048)
    asm.li("r3", base)
    asm.fli("f1", 1.5)
    asm.fli("f2", 2.0)
    asm.label("loop")
    asm.fma("f3", "f1", "f2", "f3")
    asm.fstore("f3", "r3", 0)
    asm.addi("r3", "r3", 1)
    asm.addi("r2", "r2", 1)
    asm.blt("r2", "r1", "loop")
    asm.halt()
    asm.endfunc()
    return asm.build()


def _platform_fixture(name):
    @pytest.fixture(name=name.lower())
    def fixture():
        return create(name)

    return fixture


# one fixture per platform
simt3e = _platform_fixture("simT3E")
simx86 = _platform_fixture("simX86")
simpower = _platform_fixture("simPOWER")
simalpha = _platform_fixture("simALPHA")
simia64 = _platform_fixture("simIA64")
simsparc = _platform_fixture("simSPARC")


@pytest.fixture(params=PLATFORM_NAMES)
def any_platform(request):
    """Parametrized over every platform (fresh substrate each)."""
    return create(request.param)


@pytest.fixture(
    params=["simT3E", "simX86", "simPOWER", "simIA64", "simSPARC"]
)
def direct_platform(request):
    """Parametrized over the direct-counting platforms."""
    return create(request.param)
