"""Beta-Bernoulli Thompson sampling over a discrete set of arms.

The adaptive jammer treats channels as arms with "sensed the target" as
reward. The smart hopping defender does not use this module: it keeps its
own decayed per-channel tallies (see ``defender``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Block sizes for the per-arm sample cache. Arms whose posterior just changed
# get a short block because the next update will invalidate it again; stable
# arms amortize one generator call over many selections.
_HOT_BLOCK = 4
_COLD_BLOCK = 64


@dataclass
class BetaArm:
    """Snapshot of one arm's Beta posterior.

    Attributes
    ----------
    alpha : float
        Success shape parameter: 1 plus the counted rewards equal to 1
        (the windowed sampler counts only the rewards in its window).
    beta : float
        Failure shape parameter: 1 plus the counted rewards equal to 0.
    """

    alpha: float
    beta: float


class ThompsonSampler:
    """Thompson sampling state over ``num_arms`` Beta-Bernoulli arms.

    Selection draws one posterior sample per arm and plays the argmax
    (ties resolve to the lowest index). Rewards arrive through
    :meth:`update`, the only place a posterior moves: an arm chosen now has
    its outcome observed one step later, so a freshly selected arm still
    shows its old posterior until its reward lands.

    Parameters
    ----------
    num_arms : int
        Number of arms; must be positive.
    """

    def __init__(self, num_arms: int) -> None:
        if num_arms <= 0:
            raise ValueError(f"num_arms must be positive, got {num_arms}")
        self.num_arms = num_arms
        self._alpha = [1.0] * num_arms
        self._beta = [1.0] * num_arms
        # Per-arm cached samples (python lists: scalar indexing is faster
        # than numpy element access in the per-slot loop).
        self._cache: list[list[float]] = [[] for _ in range(num_arms)]
        self._cursor = [0] * num_arms
        self._hot = [True] * num_arms

    @property
    def arms(self) -> list[BetaArm]:
        """Snapshot of all arm posteriors."""
        return [BetaArm(a, b) for a, b in zip(self._alpha, self._beta)]

    def select_arm(self, rng: np.random.Generator) -> int:
        """Sample every arm's posterior and return the argmax arm index."""
        cache = self._cache
        cursor = self._cursor
        best = 0
        best_value = -1.0
        for j in range(self.num_arms):
            pos = cursor[j]
            block = cache[j]
            if pos >= len(block):
                size = _HOT_BLOCK if self._hot[j] else _COLD_BLOCK
                block = rng.beta(self._alpha[j], self._beta[j], size).tolist()
                cache[j] = block
                self._hot[j] = False
                pos = 0
            value = block[pos]
            cursor[j] = pos + 1
            if value > best_value:
                best_value = value
                best = j
        return best

    def update(self, arm: int, reward: int) -> None:
        """Fold one observed reward (0 or 1) into ``arm``'s posterior."""
        r = 1 if reward else 0
        self._alpha[arm] += r
        self._beta[arm] += 1 - r
        # Cached samples for this arm no longer match its posterior.
        self._cache[arm] = []
        self._cursor[arm] = 0
        self._hot[arm] = True


class WindowedThompsonSampler(ThompsonSampler):
    """Thompson sampling with a sliding observation window per arm.

    The plain sampler accumulates evidence forever. Against a target that
    relocates, that saturates: after thousands of pulls every posterior
    settles on the long-run average and one more reward cannot move it, so
    the sampler stops reacting. Here each arm's posterior is built from its
    last ``window`` observed plays only. A camped-on arm stays sharp near 1,
    an abandoned one drains within a window's worth of plays, and arms keep
    their accumulated pessimism until they are actually replayed, so the
    reaction speed never degrades over a run. Alpha and beta stay exactly
    1 plus the windowed successes and 1 plus the windowed failures.
    """

    def __init__(self, num_arms: int, window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        super().__init__(num_arms)
        self.window = window
        self._history: list[deque[int]] = [deque(maxlen=window) for _ in range(num_arms)]

    def update(self, arm: int, reward: int) -> None:
        history = self._history[arm]
        if len(history) == history.maxlen:
            # The oldest observation slides out of the posterior.
            old = history[0]
            self._alpha[arm] -= old
            self._beta[arm] -= 1 - old
        history.append(1 if reward else 0)
        super().update(arm, reward)
