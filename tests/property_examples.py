"""Example counts for the property suites: the ``REPRO_PROPERTY_EXAMPLES`` knob.

A per-test ``@settings(max_examples=N)`` replaces the active hypothesis
profile's count, so a suite that pins N to keep tier-1 fast would never
scale with the knob.  Such suites pass ``examples(N)`` instead.
"""

from __future__ import annotations

import os

#: the knob's value; 0 when it is unset (the deterministic ``ci`` profile).
EXAMPLES = int(os.environ.get("REPRO_PROPERTY_EXAMPLES", "0") or 0)


def examples(pinned: int) -> int:
    """*pinned*, raised to ``REPRO_PROPERTY_EXAMPLES`` when that is larger."""
    return max(pinned, EXAMPLES)
