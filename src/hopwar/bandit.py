"""Beta-Bernoulli Thompson sampling over a discrete set of arms.

The adaptive jammer treats channels as arms with "sensed the target" as
reward. The smart hopping defender does not use this module: it keeps its
own decayed per-channel tallies (see ``defender``).
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from functools import partial

import numpy as np

# Posterior samples drawn per generator call into one state's store (see
# ThompsonSampler); a block is shared by every arm that passes through it.
_BLOCK = 64


class ThompsonSampler:
    """Windowed Thompson sampling state over ``num_arms`` Beta-Bernoulli arms.

    Selection draws one posterior sample per arm and plays the argmax
    (ties resolve to the lowest index). Rewards arrive through
    :meth:`update`, the only place a posterior moves: an arm chosen now has
    its outcome observed one step later, so a freshly selected arm still
    shows its old posterior until its reward lands.

    Samples are drawn in blocks of ``_BLOCK`` and kept in a pool with one
    store per posterior state ``(alpha, beta)``; every arm in a state spends
    from that state's store, one sample per selection, and an arm whose
    posterior moves switches stores and loses nothing. Each sample is spent
    once, and an unspent one is an independent draw no selection has seen,
    so it is still a Beta(alpha, beta) sample given the history: selection
    is exact Thompson sampling. A windowed posterior has ``alpha + beta <=
    window + 2``, so a sampler holds at most ``(window + 1)(window + 2) / 2``
    stores of fewer than ``_BLOCK`` samples each.

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
        # Unspent samples per posterior state, spent with pop(); _cache[j]
        # is the store of arm j's state.
        self._pool: defaultdict[tuple[float, float], array] = defaultdict(partial(array, "d"))
        self._cache = [self._pool[1.0, 1.0]] * num_arms
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
        best = 0
        best_value = -1.0
        for j, store in enumerate(self._cache):
            if not store:
                store.frombytes(rng.beta(self._alpha[j], self._beta[j], _BLOCK).tobytes())
            value = store.pop()
            if value > best_value:
                best_value = value
                best = j
        return best

    def update(self, arm: int, reward: int) -> None:
        """Fold one observed reward (0 or 1) into ``arm``'s posterior.

        An arm whose posterior moved spends from its new state's store next;
        an update that leaves the posterior as it was touches no store.
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
        alpha = self._alpha[arm] = self._alpha[arm] + r
        beta = self._beta[arm] = self._beta[arm] + 1 - r
        self._cache[arm] = self._pool[alpha, beta]
