import random

import numpy as np
import pytest

from hopwar.bandit import _BLOCK, ThompsonSampler


class ConstantRng:
    """Stand-in generator whose beta draws are a fixed value."""

    def __init__(self, value=0.5):
        self.value = value

    def beta(self, a, b, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class CountingRng:
    """Stand-in generator with real beta draws that records each call as (alpha, beta, size)."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def beta(self, a, b, size=None):
        self.calls.append((a, b, size))
        return self._rng.beta(a, b, size)


# A window no shorter than an arm's longest history never fills, so such a
# sampler adds every reward to its posterior.
LONG_WINDOW = 10_000


def test_prior_is_uniform():
    s = ThompsonSampler(5, LONG_WINDOW)
    assert s.arms == [(1.0, 1.0)] * 5


def test_update_moves_only_the_played_arm():
    s = ThompsonSampler(3, LONG_WINDOW)
    s.update(1, 1)
    s.update(1, 0)
    s.update(2, 0)
    assert s.arms == [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0)]


def test_select_does_not_touch_counters():
    # The outcome of a selection is observed a step later, so the posterior
    # moves in update, never in select_arm.
    s = ThompsonSampler(4, LONG_WINDOW)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s.select_arm(rng)
    assert s.arms == [(1.0, 1.0)] * 4


def test_posterior_replay_matches_closed_form():
    # Whatever the arm/reward sequence, the posterior must equal the prior
    # plus per-arm success/failure tallies. Exact equality, no tolerance.
    pyrng = random.Random(1234)
    for _ in range(200):
        n = pyrng.randint(1, 8)
        s = ThompsonSampler(n, 300)
        wins = [0] * n
        losses = [0] * n
        for _ in range(pyrng.randint(0, 300)):
            arm = pyrng.randrange(n)
            r = pyrng.randint(0, 1)
            s.update(arm, r)
            wins[arm] += r
            losses[arm] += 1 - r
        for j, (alpha, beta) in enumerate(s.arms):
            assert alpha == 1.0 + wins[j]
            assert beta == 1.0 + losses[j]


def test_tie_breaks_to_lowest_index():
    s = ThompsonSampler(6, LONG_WINDOW)
    assert s.select_arm(ConstantRng(0.5)) == 0


def test_dominant_arm_wins_selection():
    # Beta(100, 1) against eleven Beta(1, 100) arms: the dominant arm's
    # samples sit near 1 while the rest sit near 0.
    s = ThompsonSampler(12, LONG_WINDOW)
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
        s = ThompsonSampler(7, LONG_WINDOW)
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
        ThompsonSampler(0, LONG_WINDOW)


def test_windowed_evicts_the_oldest_play():
    s = ThompsonSampler(2, window=3)
    for r in (1, 1, 1):
        s.update(0, r)
    assert s.arms[0] == (4.0, 1.0)
    s.update(0, 0)  # the first success slides out
    assert s.arms[0] == (3.0, 2.0)


def test_windowed_posterior_matches_the_tail_of_the_history():
    pyrng = random.Random(77)
    for _ in range(100):
        n = pyrng.randint(1, 6)
        w = pyrng.randint(1, 12)
        s = ThompsonSampler(n, window=w)
        seen = [[] for _ in range(n)]
        for _ in range(pyrng.randint(0, 200)):
            arm = pyrng.randrange(n)
            r = pyrng.randint(0, 1)
            s.update(arm, r)
            seen[arm].append(r)
        for j, (alpha, beta) in enumerate(s.arms):
            tail = seen[j][-w:]
            assert alpha == 1.0 + sum(tail)
            assert beta == 1.0 + len(tail) - sum(tail)


def test_windowed_forgets_old_pessimism():
    # Fifty failures mean little once a window of successes replaces them;
    # the unwindowed posterior would still be drowning in them.
    s = ThompsonSampler(2, window=10)
    for _ in range(50):
        s.update(0, 0)
    for _ in range(10):
        s.update(0, 1)
    assert s.arms[0] == (11.0, 1.0)


def test_windowed_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        ThompsonSampler(3, window=0)


def test_arms_that_share_a_state_share_one_generator_call():
    # Every update adds a play, so every update moves the posterior; arms
    # given the same rewards move together and keep sharing one store.
    s = ThompsonSampler(3, LONG_WINDOW)
    rng = CountingRng()
    s.select_arm(rng)
    assert rng.calls == [(1.0, 1.0, _BLOCK)]
    for reward in (1, 1, 0, 0, 1, 1):
        for j in range(3):
            s.update(j, reward)
        rng.calls.clear()
        s.select_arm(rng)
        assert rng.calls == [(*s.arms[0], _BLOCK)]


@pytest.mark.parametrize("window", [LONG_WINDOW, 2])
def test_an_update_that_moves_the_posterior_redraws_one_hot_block_for_that_arm(window):
    # The arm's new state has an empty store, so the next select draws one
    # block for that state and nothing for the arms whose stores still hold samples.
    s = ThompsonSampler(3, window=window)
    s.update(1, 1)
    s.update(1, 1)
    rng = CountingRng()
    s.select_arm(rng)
    s.update(1, 0)  # with the window full, a failure replaces a success
    rng.calls.clear()
    s.select_arm(rng)
    assert rng.calls == [(*s.arms[1], _BLOCK)]


def test_an_arm_that_returns_to_a_state_spends_its_leftover_samples():
    s = ThompsonSampler(3, window=2)
    rng = CountingRng()
    s.select_arm(rng)
    visited = []
    # (2, 1), then with the window full (3, 1) -> (2, 2) -> (1, 3) -> (2, 2).
    for reward in (1, 1, 0, 0, 1):
        s.update(0, reward)
        rng.calls.clear()
        s.select_arm(rng)
        visited.append((s.arms[0], list(rng.calls)))
    assert visited == [
        ((2.0, 1.0), [(2.0, 1.0, _BLOCK)]),
        ((3.0, 1.0), [(3.0, 1.0, _BLOCK)]),
        ((2.0, 2.0), [(2.0, 2.0, _BLOCK)]),
        ((1.0, 3.0), [(1.0, 3.0, _BLOCK)]),
        ((2.0, 2.0), []),
    ]


def test_an_update_that_leaves_the_posterior_draws_nothing():
    s = ThompsonSampler(3, window=2)
    s.update(0, 1)
    s.update(0, 1)
    rng = CountingRng()
    s.select_arm(rng)
    assert rng.calls == [(3.0, 1.0, _BLOCK), (1.0, 1.0, _BLOCK)]
    before = s.arms
    s.update(0, 1)  # a success slides out as a success comes in
    assert s.arms == before
    rng.calls.clear()
    s.select_arm(rng)
    assert rng.calls == []


class RefillCheckingRng(CountingRng):
    """Counting generator that checks each refill against the sampler's arms.

    A draw is allowed only for the posterior of some arm whose state's store
    is empty: the sampler never draws for a state nobody is in, nor while
    that state still holds unspent samples.
    """

    def __init__(self, sampler, seed=0):
        super().__init__(seed)
        self.sampler = sampler
        self.drawn = 0

    def beta(self, a, b, size=None):
        assert (a, b) in self.sampler.arms
        assert not self.sampler._pool[a, b]
        self.drawn += size
        return super().beta(a, b, size)


def test_pooled_samples_are_accounted_for_and_drawn_for_the_asking_state():
    pyrng = random.Random(5)
    num_arms, selects = 5, 3000
    s = ThompsonSampler(num_arms, window=3)
    rng = RefillCheckingRng(s)
    for _ in range(selects):
        arm = s.select_arm(rng)
        # Every arm spends from the store of its own posterior state.
        assert all(s._cache[j] is s._pool[s.arms[j]] for j in range(num_arms))
        s.update(arm, pyrng.random() < 0.2 + 0.15 * arm)
        other = pyrng.randrange(num_arms)
        s.update(other, pyrng.randint(0, 1))
    unspent = sum(len(store) for store in s._pool.values())
    assert rng.drawn == num_arms * selects + unspent
    assert all(size == _BLOCK for _, _, size in rng.calls)
    # Arms shared states: far fewer calls than one per arm per select.
    assert len(rng.calls) < selects


def test_pooled_selection_frequencies_match_fresh_draws():
    # Windows full of fixed reward patterns, and each update replays the
    # reward sliding out, so the posteriors never move; three of the five
    # arms share the state (3, 3) and so share one store.
    patterns = [(1, 1, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1)]
    s = ThompsonSampler(len(patterns), window=4)
    for j, pattern in enumerate(patterns):
        for r in pattern:
            s.update(j, r)
    arms = s.arms
    assert arms == [(3.0, 3.0), (4.0, 2.0), (3.0, 3.0), (2.0, 4.0), (3.0, 3.0)]
    slot = [0] * len(patterns)
    rng = np.random.default_rng(2024)
    n = 20_000
    pooled = np.zeros(len(patterns))
    for _ in range(n):
        arm = s.select_arm(rng)
        pooled[arm] += 1
        s.update(arm, patterns[arm][slot[arm]])
        slot[arm] = (slot[arm] + 1) % len(patterns[arm])
    assert s.arms == arms

    # The reference draws a fresh sample for every arm on every select.
    ref_rng = np.random.default_rng(7)
    alpha, beta = np.array(arms).T
    fresh = np.bincount(ref_rng.beta(alpha, beta, (n, len(arms))).argmax(axis=1), minlength=len(arms))

    p_pooled, p_fresh = pooled / n, fresh / n
    # Two independent binomial proportions: 4.5 standard errors of their difference.
    band = 4.5 * np.sqrt(p_fresh * (1 - p_fresh) * 2 / n)
    assert np.all(np.abs(p_pooled - p_fresh) <= band), (p_pooled, p_fresh)
