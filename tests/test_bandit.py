import random

import numpy as np
import pytest

from hopwar.bandit import ThompsonSampler, WindowedThompsonSampler


class ConstantRng:
    """Stand-in generator whose beta draws are a fixed value."""

    def __init__(self, value=0.5):
        self.value = value

    def beta(self, a, b, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def test_prior_is_uniform():
    s = ThompsonSampler(5)
    for arm in s.arms:
        assert arm.alpha == 1.0
        assert arm.beta == 1.0


def test_update_moves_only_the_played_arm():
    s = ThompsonSampler(3)
    s.update(1, 1)
    s.update(1, 0)
    s.update(2, 0)
    arms = s.arms
    assert (arms[0].alpha, arms[0].beta) == (1.0, 1.0)
    assert (arms[1].alpha, arms[1].beta) == (2.0, 2.0)
    assert (arms[2].alpha, arms[2].beta) == (1.0, 2.0)


def test_select_does_not_touch_counters():
    # The outcome of a selection is observed a step later, so the posterior
    # moves in update, never in select_arm.
    s = ThompsonSampler(4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s.select_arm(rng)
    assert all((arm.alpha, arm.beta) == (1.0, 1.0) for arm in s.arms)


def test_posterior_replay_matches_closed_form():
    # Whatever the arm/reward sequence, the posterior must equal the prior
    # plus per-arm success/failure tallies. Exact equality, no tolerance.
    pyrng = random.Random(1234)
    for _ in range(200):
        n = pyrng.randint(1, 8)
        s = ThompsonSampler(n)
        wins = [0] * n
        losses = [0] * n
        for _ in range(pyrng.randint(0, 300)):
            arm = pyrng.randrange(n)
            r = pyrng.randint(0, 1)
            s.update(arm, r)
            wins[arm] += r
            losses[arm] += 1 - r
        for j, arm in enumerate(s.arms):
            assert arm.alpha == 1.0 + wins[j]
            assert arm.beta == 1.0 + losses[j]


def test_tie_breaks_to_lowest_index():
    s = ThompsonSampler(6)
    assert s.select_arm(ConstantRng(0.5)) == 0


def test_dominant_arm_wins_selection():
    # Beta(100, 1) against eleven Beta(1, 100) arms: the dominant arm's
    # samples sit near 1 while the rest sit near 0.
    s = ThompsonSampler(12)
    for _ in range(99):
        s.update(3, 1)
    for j in range(12):
        if j == 3:
            continue
        for _ in range(99):
            s.update(j, 0)
    rng = np.random.default_rng(42)
    picks = sum(1 for _ in range(2000) if s.select_arm(rng) == 3)
    assert picks >= 1980


def test_selection_sequence_is_deterministic():
    def run(seed):
        s = ThompsonSampler(7)
        rng = np.random.default_rng(seed)
        out = []
        for t in range(400):
            arm = s.select_arm(rng)
            out.append(arm)
            s.update(arm, 1 if (arm * t) % 3 == 0 else 0)
        return out

    assert run(99) == run(99)
    assert run(99) != run(100)


def test_rejects_nonpositive_arm_count():
    with pytest.raises(ValueError):
        ThompsonSampler(0)


def test_windowed_evicts_the_oldest_play():
    s = WindowedThompsonSampler(2, window=3)
    for r in (1, 1, 1):
        s.update(0, r)
    assert (s.arms[0].alpha, s.arms[0].beta) == (4.0, 1.0)
    s.update(0, 0)  # the first success slides out
    arm = s.arms[0]
    assert (arm.alpha, arm.beta) == (3.0, 2.0)


def test_windowed_posterior_matches_the_tail_of_the_history():
    pyrng = random.Random(77)
    for _ in range(100):
        n = pyrng.randint(1, 6)
        w = pyrng.randint(1, 12)
        s = WindowedThompsonSampler(n, window=w)
        seen = [[] for _ in range(n)]
        for _ in range(pyrng.randint(0, 200)):
            arm = pyrng.randrange(n)
            r = pyrng.randint(0, 1)
            s.update(arm, r)
            seen[arm].append(r)
        for j, arm in enumerate(s.arms):
            tail = seen[j][-w:]
            assert arm.alpha == 1.0 + sum(tail)
            assert arm.beta == 1.0 + len(tail) - sum(tail)


def test_windowed_forgets_old_pessimism():
    # Fifty failures mean little once a window of successes replaces them;
    # the unwindowed posterior would still be drowning in them.
    s = WindowedThompsonSampler(2, window=10)
    for _ in range(50):
        s.update(0, 0)
    for _ in range(10):
        s.update(0, 1)
    assert (s.arms[0].alpha, s.arms[0].beta) == (11.0, 1.0)


def test_windowed_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        WindowedThompsonSampler(3, window=0)
