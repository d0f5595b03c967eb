"""One master seed, many reproducible streams.

Every stochastic consumer inside the validate harness -- plane
substrates, the refutation generator, injected fault profiles -- derives
its own seed from the single ``--seed`` the user passes, through
:func:`derive_seed`.  The derivation is a pure function of
``(master, label)`` using BLAKE2b, so:

- one command-line seed reproduces the *entire* run, every plane and
  every fault schedule included;
- streams with different labels are statistically independent (changing
  the refute plane's draw count cannot perturb the convergence plane);
- the mapping is stable across Python versions and machines (unlike
  ``hash()``, which is salted per process).

The scheme is documented in DESIGN.md ("Seed derivation"); tests pin
specific derived values so an accidental change to the function shows up
as a failure, not as a silently different fault schedule.
"""

from __future__ import annotations

import hashlib

#: Derived seeds fit in 48 bits: comfortably inside every consumer's
#: accepted range (``random.Random`` takes arbitrary ints; fault specs
#: print as decimal and should stay readable).
_SEED_BITS = 48


def derive_seed(master: int, label: str) -> int:
    """Derive the sub-seed for stream *label* from one *master* seed."""
    digest = hashlib.blake2b(
        f"{int(master)}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & ((1 << _SEED_BITS) - 1)
