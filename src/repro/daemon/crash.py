"""Test-only saboteur: deterministically kill or wedge papid workers.

Chaos that cannot be replayed is folklore, not evidence.  Instead of an
external process sending SIGKILL at wall-clock times (unreproducible),
the saboteur rides *inside* the worker and fires after an exact number
of freshly-executed batch ops, with the countdown and failure mode
drawn from :func:`repro.validate.seeds.derive_seed` on the fault plan's
seed and the worker's ``(id, generation)``.  The crash point is then a
pure function of the seed and the (deterministic) op stream, which is
what lets the chaos-soak assert bit-identical fleets across runs.

Only generation 0 of each worker carries a saboteur: respawned workers
(generation ≥ 1) run clean, so a soak with N shards sees exactly N
firings and always terminates.  Dedupe-cache replays do not tick the
countdown — retries forced by *other* shards' crashes must not move
this shard's crash point.

Failure modes:

- ``die``   — ``os._exit(3)`` mid-batch: the parent sees a dead process
  and an EOF on the pipe, with the current batch unacked.
- ``wedge`` — stop answering (sleep forever) while staying alive: only
  the supervisor's heartbeat timeout can tell this from a slow worker.

The inline (in-process) transport cannot ``os._exit`` or sleep forever;
there the saboteur raises :class:`WorkerCrashed`, which the inline
conn translates into the same dead-pipe surface the real transport
shows (``wedge`` degrades to ``die`` inline, since a synchronous hang
would deadlock the test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.plan import FaultPlan, parse_inject
from repro.validate.seeds import derive_seed


class WorkerCrashed(Exception):
    """Inline-transport stand-in for a worker process dying mid-batch."""

    def __init__(self, mode: str) -> None:
        super().__init__(f"saboteur fired ({mode})")
        self.mode = mode


@dataclass(frozen=True)
class CrashPlan:
    """Per-fleet sabotage schedule derived from one ``seed:profile`` spec."""

    seed: int
    crash_ops: int
    wedge_frac: float

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> Optional["CrashPlan"]:
        """Build from an ``--inject`` spec; None when sabotage is off."""
        if not spec:
            return None
        plan: FaultPlan = parse_inject(spec)
        if plan.profile.worker_crash_ops <= 0:
            return None
        return cls(
            seed=plan.seed,
            crash_ops=plan.profile.worker_crash_ops,
            wedge_frac=plan.profile.worker_wedge_frac,
        )

    def draw(self, worker_id: int, generation: int
             ) -> Optional[Tuple[str, int]]:
        """(mode, countdown) for one worker generation, or None.

        Generation 0 only; countdown is uniform in
        ``[crash_ops//2, crash_ops + crash_ops//2]`` so shard crash
        points interleave instead of firing in lockstep.
        """
        if generation > 0:
            return None
        rng = random.Random(
            derive_seed(self.seed, f"papid:worker:{worker_id}:{generation}")
        )
        half = max(1, self.crash_ops // 2)
        countdown = rng.randint(half, self.crash_ops + half)
        mode = "wedge" if rng.random() < self.wedge_frac else "die"
        return mode, countdown

    def saboteur(self, worker_id: int, generation: int,
                 inline: bool = False) -> Optional["Saboteur"]:
        drawn = self.draw(worker_id, generation)
        if drawn is None:
            return None
        mode, countdown = drawn
        return Saboteur(mode=mode, countdown=countdown, inline=inline)


class Saboteur:
    """Counts fresh ops; fires once when the countdown reaches zero."""

    def __init__(self, mode: str, countdown: int, inline: bool = False
                 ) -> None:
        self.mode = mode
        self.countdown = countdown
        self.inline = inline
        self.fired = False

    def tick(self) -> None:
        """Called once per freshly-executed batch op (not on replays)."""
        if self.fired:
            return
        self.countdown -= 1
        if self.countdown > 0:
            return
        self.fired = True
        if self.inline:
            raise WorkerCrashed(self.mode)
        if self.mode == "wedge":
            import time
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(3600)
        import os
        os._exit(3)  # pragma: no cover - exits the worker process
