"""Greedy genome shrinking: refutations become minimal reproducers.

A raw refuting program is usually hundreds of dynamic instructions of
mostly-irrelevant structure; what a bug report needs is the smallest
program that still disagrees with the model.  Because the generator
works from a JSON-serializable :class:`~repro.refute.generator.Genome`,
shrinking is structural -- drop whole segments, drop body ops, collapse
trip counts, drop unused leaves -- rather than token-level, so every
candidate is by construction a valid, terminating program.

The predicate the engine passes in re-runs the *full* check (predict,
measure, compare) on the candidate -- the same judge that refuted the
program, pinned to the preset or engine tier that disagreed -- so a
shrink step is kept only when that same disagreement survives.  Greedy
passes repeat to a fixed point; the result is 1-minimal with respect to
the shrink moves (no single move preserves the refutation), which in
practice lands well under the 30-instruction reproducer ceiling the
acceptance criteria demand.
"""

from __future__ import annotations

from typing import Callable, List

from repro.refute.generator import Genome, Segment

__all__ = ["shrink_genome"]

#: Trip counts tried when collapsing a segment, smallest first.
_TRIP_LADDER = (1, 2)


def _with_segments(genome: Genome, segments: List[Segment]) -> Genome:
    return Genome(seed=genome.seed, segments=tuple(segments),
                  leaves=genome.leaves)


def _drop_unused_leaves(genome: Genome) -> Genome:
    """Remove leaves no calls-segment references (renumbering is handled
    by the generator, which indexes leaves modulo the live count)."""
    if not genome.leaves:
        return genome
    if any(s.kind == "calls" for s in genome.segments):
        return genome
    return Genome(seed=genome.seed, segments=genome.segments, leaves=())


def shrink_genome(
    genome: Genome,
    still_refutes: Callable[[Genome], bool],
    max_checks: int = 200,
) -> Genome:
    """Greedily shrink *genome* while ``still_refutes`` holds.

    ``still_refutes`` must be deterministic and must hold for *genome*
    itself (the engine only shrinks confirmed refutations).  At most
    *max_checks* candidate evaluations are spent; the best genome found
    so far is returned when the budget runs out, so shrinking is always
    safe to call even with an expensive predicate.
    """
    best = genome
    checks = 0

    def try_candidate(cand: Genome) -> bool:
        nonlocal best, checks
        if checks >= max_checks:
            return False
        if not cand.segments:
            return False
        checks += 1
        if still_refutes(cand):
            best = cand
            return True
        return False

    progress = True
    while progress and checks < max_checks:
        progress = False

        # Pass 1: drop whole segments (largest structural win first).
        i = 0
        while i < len(best.segments):
            if len(best.segments) == 1:
                break
            segs = list(best.segments)
            del segs[i]
            if try_candidate(_drop_unused_leaves(_with_segments(best, segs))):
                progress = True
            else:
                i += 1

        # Pass 2: collapse trip counts toward 1.
        for i, seg in enumerate(best.segments):
            for trips in _TRIP_LADDER:
                if seg.trips <= trips:
                    break
                segs = list(best.segments)
                segs[i] = Segment(kind=seg.kind, trips=trips, ops=seg.ops,
                                  stride=seg.stride)
                if try_candidate(_with_segments(best, segs)):
                    progress = True
                    break

        # Pass 3: drop body ops one at a time.
        for i in range(len(best.segments)):
            j = 0
            while j < len(best.segments[i].ops):
                seg = best.segments[i]
                ops = seg.ops[:j] + seg.ops[j + 1:]
                segs = list(best.segments)
                segs[i] = Segment(kind=seg.kind, trips=seg.trips, ops=ops,
                                  stride=seg.stride)
                if try_candidate(_with_segments(best, segs)):
                    progress = True
                else:
                    j += 1

        # Pass 4: simplify segment kinds to a plain loop (cheapest shape).
        for i, seg in enumerate(best.segments):
            if seg.kind == "loop":
                continue
            segs = list(best.segments)
            segs[i] = Segment(kind="loop", trips=seg.trips, ops=seg.ops)
            if try_candidate(_drop_unused_leaves(_with_segments(best, segs))):
                progress = True

        # Pass 5: shorten leaf bodies, then drop leaves entirely.
        for li in range(len(best.leaves)):
            leaf = best.leaves[li]
            if len(leaf) > 1:
                leaves = list(best.leaves)
                leaves[li] = leaf[:1]
                cand = Genome(seed=best.seed, segments=best.segments,
                              leaves=tuple(leaves))
                if try_candidate(cand):
                    progress = True
        cand = _drop_unused_leaves(best)
        if cand is not best and cand.leaves != best.leaves:
            if try_candidate(cand):
                progress = True

    return best
