import copy
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopwar import engine
from hopwar.attacker import ATTACKERS
from hopwar.config import ScenarioConfig
from hopwar.defender import (
    DEFENDERS,
    SMART_AVOID_RECENT,
    SMART_COIN_BLOCK,
    SMART_DECAY_TABLE_LEN,
    SMART_FAILURE_DECAY,
    SMART_FLEE_STREAK,
    SMART_PROBE_PROB,
    SMART_REHOME_SLOTS,
    SMART_SUCCESS_DECAY,
    RandomDefender,
    SmartDefender,
)


def make(window=10, threshold=0.8, channels=12, seed=0):
    config = ScenarioConfig(num_channels=channels, detection_window_slots=window, detection_threshold=threshold)
    return RandomDefender(config, np.random.default_rng(seed))


def detect(d):
    """Record failures until the detector fires."""
    while not d.record_and_detect(False):
        pass


def test_window_starts_clean():
    d = make()
    assert d.pdr == 1.0
    assert d.detections == 0


def test_threshold_is_strict():
    # window 10, threshold 0.8: two failures leave pdr at exactly 0.8,
    # which must not fire; the third pushes it below.
    d = make()
    assert not d.record_and_detect(False)
    assert not d.record_and_detect(False)
    assert d.pdr == pytest.approx(0.8)
    assert d.record_and_detect(False)
    assert d.detections == 1
    assert d.hop_pending


def test_a_window_without_a_delivery_fires_at_any_positive_threshold():
    # At threshold * window <= 1e-9 the budget was the whole window, so a
    # window of failures only (pdr 0.0, below the threshold) never fired.
    d = make(window=10, threshold=1e-12)
    assert d._budget == 9
    for _ in range(9):
        assert not d.record_and_detect(False)
    assert d.pdr == pytest.approx(0.1)
    assert d.record_and_detect(False)
    assert d.detections == 1


def test_detection_resets_the_window_to_clean():
    d = make()
    for _ in range(2):
        fired = False
        for _ in range(3):
            fired = d.record_and_detect(False)
        assert fired
        assert d.pdr == 1.0
    assert d.detections == 2


def test_old_slots_slide_out():
    d = make(window=4)
    d.record_and_detect(False)
    for _ in range(4):
        d.record_and_detect(True)
    assert d.pdr == 1.0


def test_detector_holds_no_more_stamps_than_its_failure_budget():
    # Only failures are stored, and never more than the budget: a long
    # window costs nothing for the deliveries in it.
    d = make(window=5000)
    for slot in range(100):
        d.record_and_detect(slot % 2 == 0)
        assert len(d._failures) <= d._budget
    assert d.pdr == (5000 - 50) / 5000

    d = make(window=10, threshold=0.8)
    assert d._budget == 2
    coins = random.Random(13)
    for _ in range(10_000):
        d.record_and_detect(coins.random() < 0.7)
        assert len(d._failures) <= d._budget
    assert d.detections > 0


class ReferenceDetector:
    """The detector written plainly: every outcome since the last reset, and
    the slots before the reset counted as successes."""

    def __init__(self, window, threshold):
        self.window = window
        self.min_good = max(1, math.ceil(threshold * window - 1e-9))
        self.outcomes = []
        self.detections = 0

    @property
    def good(self):
        return self.window - self.outcomes[-self.window :].count(False)

    @property
    def pdr(self):
        return self.good / self.window

    def record_and_detect(self, delivered):
        self.outcomes.append(delivered)
        if self.good < self.min_good:
            self.detections += 1
            self.outcomes.clear()
            return True
        return False


# A slot's outcome, or None for a reset as a smart home move makes; resets are
# rare enough that a window of up to 60 slots fills between them.
DETECTOR_STEPS = st.lists(st.sampled_from((True,) * 12 + (False,) * 7 + (None,)), min_size=100, max_size=400)
EXAMPLE_STEPS = random.Random(3).choices((True, False, None), weights=(75, 22, 3), k=400)


@given(window=st.integers(1, 60), threshold=st.floats(0.0, 1.0, exclude_min=True), steps=DETECTOR_STEPS)
@example(window=10, threshold=1.0, steps=EXAMPLE_STEPS)
@example(window=10, threshold=0.8, steps=EXAMPLE_STEPS)
def test_failure_budget_detector_matches_the_plain_window(window, threshold, steps):
    d = make(window=window, threshold=threshold)
    ref = ReferenceDetector(window, threshold)
    for delivered in steps:
        if delivered is None:
            d._reset_window()
            ref.outcomes.clear()
            continue
        assert d.record_and_detect(delivered) == ref.record_and_detect(delivered)
        assert d.detections == ref.detections
        assert d.pdr == ref.pdr
        assert len(d._failures) <= d._budget


def test_interleaved_failures_need_the_same_budget():
    # Failures spread thinly across a clean stream never accumulate
    # past the budget, so the detector stays quiet.
    d = make(window=10)
    for _ in range(50):
        assert not d.record_and_detect(False)
        for _ in range(9):
            assert not d.record_and_detect(True)


def test_hop_random_avoids_the_sensed_channel():
    d = make(seed=3)
    seen = set()
    for _ in range(300):
        detect(d)
        seen.add(d.advance(avoid=5))
    assert 5 not in seen
    assert seen == {c for c in range(12) if c != 5}
    assert d.hops == 300


def test_hop_random_without_avoid_covers_all_channels():
    d = make(seed=4)
    seen = set()
    for _ in range(300):
        detect(d)
        seen.add(d.advance())
    assert seen == set(range(12))


def smart(window=192, seed=0):
    return SmartDefender(ScenarioConfig(detection_window_slots=window), np.random.default_rng(seed))


def slot(d, delivered):
    """One defender slot: commit the channel, then record the outcome."""
    ch = d.advance()
    d.record_and_detect(delivered)
    return ch


def test_smart_flees_after_consecutive_failures():
    d = smart(seed=0)
    assert slot(d, False) == 0
    assert slot(d, False) == 0
    moved = d.advance()
    assert moved != 0
    assert d.hops == 1


def test_smart_tolerates_scattered_failures():
    d = smart(seed=0)
    for _ in range(20):
        assert slot(d, False) == 0
        assert slot(d, True) == 0
    assert d.hops == 0


def test_smart_rehomes_on_the_timer_even_when_clean():
    d = smart(seed=0)
    homes = {slot(d, True) for _ in range(SMART_REHOME_SLOTS - 1)}
    assert homes == {0}
    assert d.advance() != 0
    assert d.hops == 1


def test_smart_avoids_recently_left_homes():
    d = smart(seed=2)
    recent = [d.home]
    for _ in range(8):
        slot(d, False)
        slot(d, False)
        new_home = d.advance()
        assert new_home not in recent[-SMART_AVOID_RECENT:]
        recent.append(new_home)
        d.record_and_detect(False)  # keep the pressure on


def test_smart_sounds_the_last_failed_channel_until_it_clears():
    d = smart(seed=7)
    # A failure away from home (as during a probe visit) marks that channel.
    d.channel = 5
    d.record_and_detect(False)
    assert d.probe_target == 5
    d.channel = d.home
    # The policy occasionally visits channel 5, home otherwise. Keep the
    # stretch shorter than the re-home timer so the home stays put.
    visits = [d.advance() for _ in range(40)]
    assert visits.count(5) > 0
    assert set(visits) <= {d.home, 5}
    # A clean probe visit clears the watch.
    while d.advance() != 5:
        d.record_and_detect(True)
    d.record_and_detect(True)
    assert d.probe_target is None
    assert all(d.advance() == d.home for _ in range(50))


def test_smart_probe_failures_do_not_build_the_flee_streak():
    d = smart(seed=3)
    d.channel = 9
    for _ in range(6):
        d.record_and_detect(False)  # failed soundings of channel 9
    d.channel = d.home
    assert d.advance() in (d.home, 9)
    assert d.hops == 0


def test_smart_starves_a_camping_jammer():
    # Against a jammer parked forever on the victim's starting channel,
    # the policy should learn to keep the link elsewhere: the victim's
    # long-run share of slots spent on the jammed channel stays well
    # below 2 / num_channels (occasional sounding visits keep it above
    # zero).
    jammed = 0
    d = smart(seed=11)
    slots = 17900
    visits = []
    for _ in range(slots):
        ch = d.advance()
        visits.append(ch == jammed)
        d.record_and_detect(ch != jammed)
    tail = visits[-(slots // 4):]
    frac = sum(tail) / len(tail)
    assert 0.0 < frac < 2.0 / 12.0


def test_smart_detection_is_telemetry_not_a_hop_trigger():
    # Three failures in a window of 10 fire the detector, but with a
    # success between each the flee streak never reaches two.
    d = smart(window=10, seed=0)
    for delivered in (False, True, False, True, False):
        slot(d, delivered)
    assert d.detections == 1
    assert d.advance() == 0
    assert d.hops == 0


@pytest.mark.parametrize("channels", [2, 3, 4])
def test_every_home_move_changes_channel(channels):
    # A failure every third slot never makes a flee streak, so the node
    # re-homes on its timer. With two or three channels, excluding the last
    # SMART_AVOID_RECENT homes would exclude every channel.
    d = SmartDefender(ScenarioConfig(num_channels=channels), np.random.default_rng(0))
    moves = 0
    for t in range(20_000):
        home, hops = d.home, d.hops
        d.advance()
        if d.hops > hops:
            moves += 1
            assert d.home != home
        d.record_and_detect(t % 3 != 2)
    assert moves > 400


class EagerCheckedSmartDefender(SmartDefender):
    """The smart defender with the eager tallies kept alongside its own.

    The eager tallies decay every channel on every slot, as the policy once
    did. Each home move must pick the channel the eager means pick: their
    first maximum outside the last ``SMART_AVOID_RECENT`` homes (at most
    ``num_channels - 1`` of them), counting the one being left.
    """

    moves = 0

    def __init__(self, config, rng) -> None:
        super().__init__(config, rng)
        self.eager_succ = [0.0] * self.num_channels
        self.eager_fail = [0.0] * self.num_channels
        self.homes_left: list[int] = []

    def _record_eagerly(self, delivered: bool) -> None:
        self.eager_succ = [s * SMART_SUCCESS_DECAY for s in self.eager_succ]
        self.eager_fail = [f * SMART_FAILURE_DECAY for f in self.eager_fail]
        (self.eager_succ if delivered else self.eager_fail)[self.channel] += 1.0

    def record_and_detect(self, delivered: bool) -> bool:
        self._record_eagerly(delivered)
        return super().record_and_detect(delivered)

    def record_deliveries(self, slots: int) -> None:
        # Every fast-forwarded stretch ends here, whether ``skip`` played it
        # or hopping was held: the eager tallies take its slots one by one.
        for _ in range(slots):
            self._record_eagerly(True)
        super().record_deliveries(slots)

    def _move_home(self) -> int:
        self.homes_left.append(self.home)
        means = [(1.0 + s) / (2.0 + s + f) for s, f in zip(self.eager_succ, self.eager_fail)]
        for ch in self.homes_left[-min(SMART_AVOID_RECENT, self.num_channels - 1) :]:
            means[ch] = -1.0
        expected = means.index(max(means))
        assert super()._move_home() == expected
        EagerCheckedSmartDefender.moves += 1
        return expected


@pytest.mark.parametrize("loss_prob", [0.0, 0.1])
def test_decay_on_read_picks_the_homes_eager_tallies_pick(monkeypatch, loss_prob):
    monkeypatch.setattr(engine, "Defender", EagerCheckedSmartDefender)
    monkeypatch.setattr(EagerCheckedSmartDefender, "moves", 0)
    runs = 0
    for attacker in ATTACKERS:
        config = ScenarioConfig(attacker=attacker, defender="smart", sim_duration_s=300.0, loss_prob=loss_prob)
        for seed in range(1, 21):
            run = engine.run_scenario(config, seed=seed)
            runs += 1
            assert run.hops > 0
    assert runs == 100
    assert EagerCheckedSmartDefender.moves > 10_000


@pytest.mark.parametrize("age", [1, 2, SMART_DECAY_TABLE_LEN - 1, SMART_DECAY_TABLE_LEN, 1000])
def test_a_tally_read_at_any_age_decays_by_the_power(age):
    # Ages inside the decay tables and past them must give the float that
    # ``v * decay ** age`` gives.
    d = smart()
    d.record_and_detect(True)
    d.record_and_detect(False)
    succ, fail = d._succ[0], d._fail[0]
    d.channel = 1
    for _ in range(age - 1):
        d.record_and_detect(True)
    d.channel = 0
    d.record_and_detect(True)
    assert d._succ[0] == succ * SMART_SUCCESS_DECAY**age + 1.0
    assert d._fail[0] == fail * SMART_FAILURE_DECAY**age


def test_probe_coins_drawn_in_blocks_decide_as_scalar_draws_do():
    # Replays the policy's branch order, drawing one scalar coin from an
    # identically seeded generator wherever the policy may sound a channel.
    d = smart(seed=5)
    scalar = np.random.default_rng(5)
    outcomes = random.Random(5)
    coins = probes = 0
    for _ in range(20_000):
        may_probe = (
            d._streak < SMART_FLEE_STREAK
            and d._since_home + 1 < SMART_REHOME_SLOTS
            and d.probe_target is not None
            and d.probe_target != d.home
        )
        target = d.probe_target
        expected = may_probe and scalar.random() < SMART_PROBE_PROB
        coins += may_probe
        ch = d.advance()
        assert (ch != d.home) == expected
        if expected:
            assert ch == target
            probes += 1
        # Channels 0-3 are jammed half the time, the rest rarely.
        d.record_and_detect(outcomes.random() >= (0.5 if ch < 4 else 0.05))
    assert coins > 10 * 64
    assert probes > 100


# --- steady and skip: delivered slots played at once ---------------------------


def state(d, ahead=3 * SMART_COIN_BLOCK):
    """A copy of the defender's attributes, its coins and generator read as the next ``ahead`` coins it would spend.

    ``steady`` may draw a block before the slots one by one would, so the
    unspent coins and the generator's state can differ where the stream of
    coins to come is the same.
    """
    attrs = {name: copy.copy(value) for name, value in vars(d).items() if name not in ("_rng", "_coins")}
    attrs["coins ahead"] = (d._coins[::-1] + copy.deepcopy(d._rng).random(ahead).tolist())[:ahead]
    return attrs


def delivered_states(d, most, held=False):
    """The defender's state after each of its next delivered slots, at most ``most``, played one by one.

    Entry ``k`` is the state after ``k`` slots of ``advance()`` (none while
    ``held``) then ``record_and_detect(True)``; the list stops before the
    first slot whose ``advance`` changes the channel or moves home, which
    may pick the channel a probe visit is on.
    """
    d = copy.deepcopy(d)
    states = [state(d)]
    while len(states) <= most:
        channel, hops = d.channel, d.hops
        if not held and (d.advance() != channel or d.hops != hops):
            break
        d.record_and_detect(True)
        states.append(state(d))
    return states


TALLY = st.floats(0.0, 1e6)
# A channel's (success tally, failure tally, slots since it was last recorded on).
CHANNEL_TALLIES = st.lists(st.tuples(TALLY, TALLY, st.integers(0, 2 * SMART_DECAY_TABLE_LEN)), min_size=8, max_size=8)
# Unspent coins, in the order they are spent.
COINS = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=SMART_COIN_BLOCK)


def after_a_delivery(channels, seed, tallies, coins, home=0, since_home=0, target=None, window=20, failures=()):
    """A smart defender just after a delivered slot on its channel, from drawn parts.

    ``target`` is None, ``"home"``, ``"away"`` (a channel to sound) or
    ``"visit"`` (the slot was a probe visit that cleared its channel).
    ``failures`` are the failed slots still in the detector, as ages.
    """
    config = ScenarioConfig(num_channels=channels, detection_window_slots=window)
    d = SmartDefender(config, np.random.default_rng(seed))
    d._now = now = 1000
    d._succ = [succ for succ, _, _ in tallies[:channels]]
    d._fail = [fail for _, fail, _ in tallies[:channels]]
    d._stamp = [now - age for _, _, age in tallies[:channels]]
    d._failures = deque(sorted(now - age for age in set(failures) if age < window)[-d._budget :])
    d._coins = coins[::-1]
    d.home = d.channel = home % channels
    d._since_home = since_home
    away = (d.home + 1) % channels
    d.probe_target = {None: None, "home": d.home, "away": away, "visit": None}[target]
    if target == "visit":
        d.channel = away
    # The slot just recorded on the channel, a delivery.
    d._stamp[d.channel] = now
    d._succ[d.channel] += 1.0
    return d


@settings(max_examples=200)
@given(
    channels=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    tallies=CHANNEL_TALLIES,
    coins=COINS,
    home=st.integers(0, 7),
    since_home=st.integers(0, SMART_REHOME_SLOTS - 1),
    target=st.sampled_from((None, "home", "away", "visit")),
    failures=st.lists(st.integers(0, 30), max_size=6),
    limit=st.integers(0, 2 * SMART_REHOME_SLOTS),
)
# A probe coin inside the horizon: the fourth coin sends the node away.
@example(
    channels=4, seed=1, tallies=[(2.0, 1.0, 1)] * 8, coins=[0.5, 0.2, 0.9, 0.01, 0.3],
    home=1, since_home=3, target="away", failures=[], limit=60,
)
# A rehome at the horizon's end: no channel to sound, five slots left on the timer.
@example(
    channels=12, seed=2, tallies=[(5.0, 0.5, 3)] * 8, coins=[],
    home=5, since_home=SMART_REHOME_SLOTS - 6, target="home", failures=[2, 9], limit=60,
)
# The coin block runs out mid-stretch: three coins left, all above the probe
# probability, and the stretch runs 24 slots on into a block drawn ahead.
@example(
    channels=6, seed=8, tallies=[(1.0, 3.0, 400)] * 8, coins=[0.7, 0.8, 0.9],
    home=2, since_home=0, target="away", failures=[], limit=2 * SMART_REHOME_SLOTS,
)
# A probe visit: no slot can be skipped.
@example(
    channels=3, seed=4, tallies=[(0.0, 0.0, 0)] * 8, coins=[0.9] * 10,
    home=0, since_home=7, target="visit", failures=[1], limit=30,
)
def test_steady_and_skip_are_delivered_slots_played_one_by_one(
    channels, seed, tallies, coins, home, since_home, target, failures, limit
):
    d = after_a_delivery(channels, seed, tallies, coins, home, since_home, target, failures=failures)
    states = delivered_states(d, limit)
    # The horizon is exact: the slot after it moves the node, unless ``limit`` cut it.
    run = copy.deepcopy(d).steady(limit)
    assert run == len(states) - 1
    assert run == 0 or target != "visit"
    for played in range(run + 1):
        fast = copy.deepcopy(d)
        assert fast.steady(limit) == run
        fast.skip(played)
        assert state(fast) == states[played], played


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    tallies=CHANNEL_TALLIES,
    coins=COINS,
    target=st.sampled_from((None, "home")),
    failures=st.lists(st.integers(0, 30), max_size=6),
    slots=st.integers(0, 3 * SMART_REHOME_SLOTS),
)
def test_a_held_defender_records_deliveries_as_one_by_one(seed, tallies, coins, target, failures, slots):
    # Before hopping starts the node sits on channel 0, its timer never runs,
    # and its only channel to sound is its home; its stretch only records.
    d = after_a_delivery(6, seed, tallies, coins, target=target, failures=failures)
    states = delivered_states(d, slots, held=True)
    for played in range(slots + 1):
        fast = copy.deepcopy(d)
        fast.record_deliveries(played)
        assert state(fast) == states[played], played


@pytest.mark.parametrize("limit", [0, 1, 30, 10**6])
def test_the_random_hopper_stays_for_any_limit(limit):
    d = make(window=4)
    d.record_and_detect(True)
    assert d.steady(limit) == limit
    d.skip(limit)
    assert (d.channel, d.hops, d._now, d.hop_pending) == (0, 0, 1 + limit, False)


def test_execute_hop_clears_pending_and_counts():
    d = make(window=4)
    assert d.advance() == 0  # no detection, no hop
    for _ in range(4):
        d.record_and_detect(False)
    assert d.hop_pending
    assert d.advance(avoid=0) != 0
    assert not d.hop_pending
    assert d.hops == 1
    # Four detections before the hop still make one hop.
    assert d.advance() == d.channel
    assert d.hops == 1


@pytest.mark.parametrize("policy", list(DEFENDERS))
def test_a_defender_draws_only_from_its_own_generator(policy, counting_rng):
    # Built the way the engine builds it, the defender gets no other
    # generator: its random hops and its probe coins are calls on this one.
    rng = counting_rng
    d = engine.Defender(ScenarioConfig(defender=policy, detection_window_slots=10), rng)
    outcomes = random.Random(9)
    probes = 0
    for _ in range(5_000):
        ch = d.advance(avoid=3)
        probes += policy == "smart" and ch != d.home
        d.record_and_detect(outcomes.random() >= (0.5 if ch < 4 else 0.2))
    if policy == "random":
        assert d.hops > 100
        assert set(rng.calls) == {"integers"} and rng.calls["integers"] >= d.hops
    else:
        assert probes > 20
        assert set(rng.calls) == {"random"} and rng.calls["random"] > 5
