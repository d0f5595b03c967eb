"""Branch predictors for the simulated machine.

Conditional branch outcomes feed the ``BR_*`` event signals; mispredictions
additionally cost pipeline-flush stall cycles.  Three predictors of
increasing sophistication are provided so that platforms can differ in
their branch behaviour (and so the branchy workloads show realistic
misprediction-rate differences between predictable and data-dependent
branches).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class BranchPredictor:
    """Interface: predict, then update with the actual outcome."""

    name = "abstract"

    def predict(self, pc: int) -> bool:
        """Return the predicted direction (True = taken) for branch at *pc*."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Record the actual outcome of the branch at *pc*."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all learned state."""
        raise NotImplementedError

    def steady_taken(self, pc: int) -> bool:
        """True when the branch at *pc* is in a *steady taken* state.

        Steady means: ``predict(pc)`` returns True and ``update(pc, True)``
        leaves the predictor's entire state unchanged, so an unbounded run
        of taken outcomes is a fixed point.  The block engine's loop
        replay requires this before multiplying a trial iteration.
        Unknown predictors conservatively answer False (replay disabled,
        correctness unaffected).
        """
        return False

    def inline_spec(self) -> Optional[Tuple[str, object, int]]:
        """Codegen contract for the trace engine, or None.

        Returns ``(kind, state, mask)`` when predict/update for a branch
        at a *statically known* pc can be open-coded against mutable
        *state* (shared by reference, so ``reset`` keeps working):

        - ``("twobit", table, mask)`` -- per-pc two-bit counters indexed
          by ``pc & mask``; predict is ``table[i] >= 2``, update
          saturates at 0/3;
        - ``("gshare", table, mask)`` -- the same counters indexed by
          ``(pc ^ predictor._history) & mask``; update also shifts the
          outcome into ``_history`` under ``_history_mask``;
        - ``("static", None, 0)`` -- always predicts taken, no state.

        Other predictors return None and are driven through the
        predict/update calls instead.
        """
        return None


class StaticTakenPredictor(BranchPredictor):
    """Always predicts taken (backward-branch-dominated codes do well)."""

    name = "static-taken"

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    def reset(self) -> None:
        pass

    def steady_taken(self, pc: int) -> bool:
        return True

    def inline_spec(self):
        return ("static", None, 0)


class TwoBitPredictor(BranchPredictor):
    """Classic per-pc two-bit saturating counter table.

    States 0/1 predict not-taken, 2/3 predict taken; new branches start
    weakly taken (state 2), matching the loop-heavy workloads.
    """

    name = "two-bit"

    def __init__(self, table_size: int = 1024) -> None:
        if table_size < 1 or table_size & (table_size - 1):
            raise ValueError("table size must be a power of two")
        self._mask = table_size - 1
        self._table: List[int] = [2] * table_size

    def predict(self, pc: int) -> bool:
        return self._table[pc & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = pc & self._mask
        state = self._table[idx]
        if taken:
            if state < 3:
                self._table[idx] = state + 1
        else:
            if state > 0:
                self._table[idx] = state - 1

    def reset(self) -> None:
        for i in range(len(self._table)):
            self._table[i] = 2

    def steady_taken(self, pc: int) -> bool:
        # state 3 is saturated: a taken outcome leaves it at 3.
        return self._table[pc & self._mask] == 3

    def inline_spec(self):
        return ("twobit", self._table, self._mask)


class GsharePredictor(BranchPredictor):
    """Gshare: global history XOR pc indexing a two-bit counter table."""

    name = "gshare"

    def __init__(self, table_size: int = 4096, history_bits: int = 8) -> None:
        if table_size < 1 or table_size & (table_size - 1):
            raise ValueError("table size must be a power of two")
        if not 0 < history_bits <= 24:
            raise ValueError("history bits must be in (0, 24]")
        self._mask = table_size - 1
        self._table: List[int] = [2] * table_size
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        state = self._table[idx]
        if taken:
            if state < 3:
                self._table[idx] = state + 1
        else:
            if state > 0:
                self._table[idx] = state - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def reset(self) -> None:
        for i in range(len(self._table)):
            self._table[i] = 2
        self._history = 0

    def steady_taken(self, pc: int) -> bool:
        # taken outcomes shift 1s into the history; once it saturates at
        # all-ones AND the indexed entry saturates at 3, further taken
        # outcomes change nothing.
        return (
            self._history == self._history_mask
            and self._table[(pc ^ self._history) & self._mask] == 3
        )

    def inline_spec(self):
        return ("gshare", self._table, self._mask)


_PREDICTORS: Dict[str, type] = {
    "static-taken": StaticTakenPredictor,
    "two-bit": TwoBitPredictor,
    "gshare": GsharePredictor,
}


def make_predictor(kind: str, **kwargs) -> BranchPredictor:
    """Factory used by platform configurations."""
    try:
        cls = _PREDICTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown predictor {kind!r}; known: {sorted(_PREDICTORS)}"
        ) from None
    return cls(**kwargs)
