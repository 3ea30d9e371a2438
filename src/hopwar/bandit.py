"""Beta-Bernoulli Thompson sampling over a discrete set of arms.

The adaptive jammer treats channels as arms with "sensed the target" as
reward. The smart hopping defender does not use this module: it keeps its
own decayed per-channel tallies (see ``defender``).
"""

from __future__ import annotations

from collections import deque

import numpy as np

# Block sizes for the per-arm sample cache. Arms whose posterior just moved
# get a short block because the next update is likely to move it again;
# stable arms amortize one generator call over many selections.
_HOT_BLOCK = 4
_COLD_BLOCK = 64


class ThompsonSampler:
    """Windowed Thompson sampling state over ``num_arms`` Beta-Bernoulli arms.

    Selection draws one posterior sample per arm and plays the argmax
    (ties resolve to the lowest index). Rewards arrive through
    :meth:`update`, the only place a posterior moves: an arm chosen now has
    its outcome observed one step later, so a freshly selected arm still
    shows its old posterior until its reward lands.

    Samples are drawn in per-arm blocks and spent one per selection. An
    update that moves an arm's posterior discards the arm's unspent
    samples, so its next selection draws a fresh short block. An update
    that leaves the posterior as it was, a full window whose oldest reward
    equals the new one, keeps them: they are unused independent draws from
    the same Beta, so selection is still exact Thompson sampling.

    Each arm's posterior is built from its last ``window`` observed plays
    only. Accumulated evidence saturates against a target that relocates:
    after thousands of pulls one more reward cannot move a posterior. A
    windowed camped-on arm stays sharp near 1, an abandoned one drains
    within a window's worth of plays, and arms keep their pessimism until
    they are actually replayed, so the reaction speed never degrades over a
    run.

    Parameters
    ----------
    num_arms : int
        Number of arms; must be positive.
    window : int
        Plays per arm that the posterior remembers; must be positive.
    """

    def __init__(self, num_arms: int, window: int) -> None:
        if num_arms <= 0:
            raise ValueError(f"num_arms must be positive, got {num_arms}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.num_arms = num_arms
        self.window = window
        self._alpha = [1.0] * num_arms
        self._beta = [1.0] * num_arms
        # Per-arm unspent posterior samples, last-first, spent with pop().
        # None marks an arm whose posterior moved: its next block is hot.
        self._cache: list[list[float] | None] = [None] * num_arms
        self._history = [deque(maxlen=window) for _ in range(num_arms)]

    @property
    def arms(self) -> list[tuple[float, float]]:
        """Every arm's posterior as ``(alpha, beta)``.

        ``alpha`` is 1 plus the arm's windowed rewards equal to 1, ``beta``
        1 plus those equal to 0.
        """
        return list(zip(self._alpha, self._beta))

    def select_arm(self, rng: np.random.Generator) -> int:
        """Sample every arm's posterior and return the argmax arm index."""
        cache = self._cache
        best = 0
        best_value = -1.0
        for j in range(self.num_arms):
            block = cache[j]
            if not block:
                size = _HOT_BLOCK if block is None else _COLD_BLOCK
                block = cache[j] = rng.beta(self._alpha[j], self._beta[j], size).tolist()[::-1]
            value = block.pop()
            if value > best_value:
                best_value = value
                best = j
        return best

    def update(self, arm: int, reward: int) -> None:
        """Fold one observed reward (0 or 1) into ``arm``'s posterior.

        The arm's cached samples are discarded only if its posterior moved.
        """
        r = 1 if reward else 0
        history = self._history[arm]
        if len(history) == self.window:
            # The oldest observation slides out of the posterior.
            old = history[0]
            history.append(r)
            if old == r:
                return
            self._alpha[arm] -= old
            self._beta[arm] -= 1 - old
        else:
            history.append(r)
        self._alpha[arm] += r
        self._beta[arm] += 1 - r
        self._cache[arm] = None
