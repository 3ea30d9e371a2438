import copy
import inspect
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopwar import attacker as attacker_module
from hopwar import defender as defender_module
from hopwar import engine
from hopwar.attacker import (
    ATTACKERS,
    PHASED_COUNT_CAP,
    BanditJammer,
    Jammer,
    OracleJammer,
    PhasedJammer,
    RandomJammer,
    ReactiveJammer,
)
from hopwar.bandit import ThompsonSampler
from hopwar.config import ConfigError, ScenarioConfig, validate
from hopwar.defender import DEFENDERS, RandomDefender, SmartDefender
from hopwar.engine import make_attacker, run_scenario


def build(cls, seed=0, **knobs):
    """Build ``cls`` as the engine does: from a valid config with ``knobs`` and a seeded generator."""
    config = ScenarioConfig(**knobs)
    validate(config)
    return cls(config, np.random.default_rng(seed))


def drive(attacker, victim_channel):
    """Run one slot of the attacker protocol against a parked victim."""
    emit = attacker.step(victim_channel)
    if attacker.sensing_channel is not None:
        attacker.observe(attacker.sensing_channel == victim_channel)
    return emit


def test_random_jammer_covers_all_channels_uniformly_enough():
    j = build(RandomJammer)
    hits = [drive(j, 5) for _ in range(6000)]
    assert set(hits) == set(range(12))
    assert all(380 < hits.count(c) < 620 for c in range(12))


def test_random_jammer_is_deterministic_per_seed():
    a = build(RandomJammer, seed=9)
    b = build(RandomJammer, seed=9)
    assert [a.step(0) for _ in range(100)] == [b.step(0) for _ in range(100)]


# (idle_trigger, dwell) pairs for the reactive tests, 1 on each side
# included; the last is the config default. Each test loops over them, so
# it keeps one test id per behaviour.
REACTIVE_KNOBS = [(1, 1), (1, 3), (4, 1), (10, 1), (10, 3), (58, 64)]


def test_reactive_camps_while_traffic_lasts():
    for idle_trigger, dwell in REACTIVE_KNOBS:
        j = build(ReactiveJammer, idle_trigger_slots=idle_trigger, reactive_dwell_slots=dwell)
        for _ in range(50):
            assert drive(j, 0) == 0
        assert j.attacking


def test_reactive_scans_after_idle_trigger_silent_slots():
    for idle_trigger, dwell in REACTIVE_KNOBS:
        j = build(ReactiveJammer, idle_trigger_slots=idle_trigger, reactive_dwell_slots=dwell)
        drive(j, 0)
        # Victim moves to channel 7; the jammer needs idle_trigger silent
        # slots to notice, and keeps jamming channel 0 until then.
        for _ in range(idle_trigger - 1):
            assert drive(j, 7) == 0
        assert j.attacking
        assert drive(j, 7) == 0
        assert not j.attacking


def test_reactive_scan_finds_the_victim_and_resumes_next_slot():
    for idle_trigger, dwell in REACTIVE_KNOBS:
        j = build(ReactiveJammer, idle_trigger_slots=idle_trigger, reactive_dwell_slots=dwell)
        drive(j, 0)
        for _ in range(idle_trigger):
            drive(j, 7)
        # Scanning starts on channel 1 and is silent, dwell slots on each
        # quiet channel, and hears the victim on its first slot on channel 7.
        scanned = []
        while not j.attacking:
            assert j.step(7) is None
            scanned.append(j.sensing_channel)
            j.observe(j.sensing_channel == 7)
        assert scanned == [ch for ch in range(1, 7) for _ in range(dwell)] + [7]
        assert drive(j, 7) == 7


def test_reactive_dwell_stretches_the_scan():
    j = build(ReactiveJammer, idle_trigger_slots=10, reactive_dwell_slots=3)
    drive(j, 0)
    for _ in range(10):
        drive(j, 6)
    scanned = []
    while not j.attacking:
        j.step(6)
        scanned.append(j.sensing_channel)
        j.observe(j.sensing_channel == 6)
    # Three slots per silent channel, one on the busy one.
    assert scanned == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6]


def test_bandit_updates_previous_arm_then_selects():
    j = build(BanditJammer, seed=1)
    arm = j.step(3)
    assert j.sampler.arms[arm] == (1.0, 1.0)
    j.observe(arm == 3)
    assert sum(j.sampler.arms[arm]) == 3.0


def test_bandit_locks_onto_a_parked_victim():
    j = build(BanditJammer, seed=5)
    hits = [drive(j, 4) for _ in range(400)]
    assert hits[-100:].count(4) >= 90


def test_phased_listens_first_and_maps_the_victim():
    j = build(PhasedJammer, listen_len_slots=60, eval_len_slots=50, retrain_trigger=0.05)
    for _ in range(60):
        assert j.step(8) is None
        j.observe(j.sensing_channel == 8)
    assert not j.listening
    assert j.counts[8] == max(j.counts)
    assert j.step(8) == 8


def test_phased_tracks_online_and_probes_when_the_map_drains():
    j = build(PhasedJammer, listen_len_slots=24, eval_len_slots=400, retrain_trigger=0.05)
    for _ in range(24):
        drive(j, 2)
    assert j.counts[2] == 2.0
    # Victim leaves; the stale count bleeds out, then probing kicks in.
    emitted = [drive(j, 9) for _ in range(19)]
    assert emitted.count(2) == 19  # ceil(2.0 / 0.11) = 19 draining slots
    assert j.counts[2] == 0.0
    probing = [drive(j, 9) for _ in range(20)]
    assert 9 in probing
    # After the probe hit the tracker locks back on.
    assert all(e == 9 for e in probing[probing.index(9) + 1 :])


def test_phased_retrains_when_the_estimate_collapses():
    j = build(PhasedJammer, listen_len_slots=12, eval_len_slots=30, retrain_trigger=0.5)
    for _ in range(12):
        drive(j, 0)
    assert not j.listening
    for _ in range(40):
        if j.listening:
            break
        drive(j, 11)  # tracker keeps missing: estimate sinks below 0.5
    assert j.retrains == 1
    assert j.listening
    assert all(c == 0.0 for c in j.counts)


class PlainScanPhasedJammer(PhasedJammer):
    """The reference: the phased jammer scanning its whole map every attacking slot."""

    def step(self, victim_channel):
        if self.listening:
            self.sensing_channel = self._sweep
            return None
        counts = self.counts
        best_count = max(counts)
        best = counts.index(best_count)
        if best_count <= 0.0:
            best = self._probe
            self._probe = (self._probe + 1) % self.num_channels
        self.sensing_channel = best
        return best


# Sensed outcomes as (busy, slots) runs, so maps drain and probes happen.
SENSED_RUNS = st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=30)


@given(
    num_channels=st.integers(2, 8),
    listen_len=st.integers(1, 30),
    eval_len=st.integers(1, 30),
    retrain_trigger=st.sampled_from((0.0, 0.3, 0.6)),
    runs=SENSED_RUNS,
)
# Both channels capped at PHASED_COUNT_CAP: the lower index wins every tie.
@example(
    num_channels=2, listen_len=80, eval_len=30, retrain_trigger=0.0, runs=[(True, 80), (False, 4), (True, 1), (False, 3)]
)
# Channel 0 drains to zero, then round-robin probes miss, then one answers
# on channel 1 above the stale best on channel 0.
@example(
    num_channels=3, listen_len=3, eval_len=30, retrain_trigger=0.0, runs=[(True, 1), (False, 2), (False, 14), (True, 1), (False, 3)]
)
# A retrain while channel 0 still leads; the second map leads on channel 2.
@example(
    num_channels=4,
    listen_len=4,
    eval_len=5,
    retrain_trigger=0.6,
    runs=[(True, 1), (False, 3), (False, 5), (False, 2), (True, 1), (False, 1), (True, 3)],
)
def test_phased_tracked_best_matches_a_full_scan_every_slot(num_channels, listen_len, eval_len, retrain_trigger, runs):
    knobs = dict(
        num_channels=num_channels, listen_len_slots=listen_len, eval_len_slots=eval_len, retrain_trigger=retrain_trigger
    )
    tracked = build(PhasedJammer, **knobs)
    plain = build(PlainScanPhasedJammer, **knobs)
    for busy in [busy for busy, slots in runs for _ in range(slots)]:
        assert tracked.step(0) == plain.step(0)
        assert tracked.sensing_channel == plain.sensing_channel
        tracked.observe(busy)
        plain.observe(busy)
        assert tracked.counts == plain.counts
        assert (tracked.listening, tracked.retrains) == (plain.listening, plain.retrains)


def counting_ranks(monkeypatch):
    """Count PhasedJammer's full map scans from here on."""
    scans = [0]
    rank = PhasedJammer._rank

    def counted(self):
        scans[0] += 1
        return rank(self)

    monkeypatch.setattr(PhasedJammer, "_rank", counted)
    return scans


def test_phased_probes_a_drained_map_without_rescanning(monkeypatch):
    scans = counting_ranks(monkeypatch)
    j = build(PhasedJammer, num_channels=4, listen_len_slots=4, eval_len_slots=400, retrain_trigger=0.0)
    for _ in range(4):
        drive(j, 0)
    # Channel 0 bleeds from 1.0 to zero; a victim on no channel answers no probe.
    assert [drive(j, -1) for _ in range(10)] == [0] * 10
    assert j.counts == [0.0] * 4
    assert [drive(j, -1) for _ in range(12)] == [0, 1, 2, 3] * 3
    # One scan when the attack began; a probe miss leaves the first maximum.
    assert scans[0] == 1


def test_phased_rescans_in_under_5_percent_of_its_attacking_slots(monkeypatch):
    scans = counting_ranks(monkeypatch)
    attacking = [0]
    step = PhasedJammer.step

    def counted_step(self, victim_channel):
        attacking[0] += not self.listening
        return step(self, victim_channel)

    monkeypatch.setattr(PhasedJammer, "step", counted_step)
    for defender in ("random", "smart"):
        scans[0] = attacking[0] = 0
        run_scenario(ScenarioConfig(attacker="phased", defender=defender), seed=1)
        assert attacking[0] == 16_800
        assert scans[0] < 0.05 * attacking[0], defender


def test_oracle_follows_every_victim_move_while_attacking():
    j = build(OracleJammer, oracle_burst_slots=10, oracle_cooldown_slots=0)
    assert j.step(3) == 3
    assert j.step(3) == 3
    assert j.step(10) == 10
    assert j.step(1) == 1


@given(burst=st.integers(1, 60), cooldown=st.integers(0, 60), victim=st.lists(st.integers(0, 11), min_size=1))
def test_oracle_duty_cycle_alternates_burst_and_silence(burst, cooldown, victim):
    # Slot k jams the victim's channel, wherever it went, iff it falls in
    # the burst part of the k-th duty cycle; three cycles and a slot are run.
    j = build(OracleJammer, oracle_burst_slots=burst, oracle_cooldown_slots=cooldown)
    cycle = burst + cooldown
    for k in range(3 * cycle + 1):
        channel = victim[k % len(victim)]
        assert j.step(channel) == (channel if k % cycle < burst else None)


def test_factory_builds_every_strategy():
    rng = np.random.default_rng(0)
    attackers = {
        "random": RandomJammer,
        "reactive": ReactiveJammer,
        "bandit": BanditJammer,
        "phased": PhasedJammer,
        "oracle": OracleJammer,
    }
    defenders = {"random": RandomDefender, "smart": SmartDefender}
    # The key order is the order the pinned outputs list the pairings in.
    assert list(ATTACKERS) == list(attackers)
    assert list(DEFENDERS) == list(defenders)
    # Each registry entry is the strategy class itself, built as Cls(config, rng).
    for registry, classes in ((ATTACKERS, attackers), (DEFENDERS, defenders)):
        for name, cls in classes.items():
            assert registry[name] is cls
            assert list(inspect.signature(cls).parameters) == ["config", "rng"]
    # Both construction hooks live in the engine and take (config, rng) too.
    for hook in (engine.Defender, engine.make_attacker):
        assert list(inspect.signature(hook).parameters) == ["config", "rng"]
    assert not hasattr(defender_module, "Defender") and not hasattr(attacker_module, "make_attacker")
    for attacker, jammer_cls in attackers.items():
        for defender, defender_cls in defenders.items():
            config = ScenarioConfig(attacker=attacker, defender=defender)
            validate(config)
            assert isinstance(engine.make_attacker(config, rng), jammer_cls)
            assert isinstance(engine.Defender(config, rng), defender_cls)
    # Validation accepts exactly the registry keys.
    for field, name in [("attacker", "Bandit"), ("attacker", "bandit "), ("defender", "smarter")]:
        with pytest.raises(ConfigError, match=f"{field} must be one of"):
            validate(ScenarioConfig(**{field: name}))


def test_factory_reads_the_attacker_knobs_from_the_config():
    rng = np.random.default_rng(0)
    config = ScenarioConfig(
        num_channels=7,
        idle_trigger_slots=3,
        reactive_dwell_slots=5,
        listen_len_slots=11,
        eval_len_slots=13,
        retrain_trigger=0.25,
        oracle_burst_slots=17,
        oracle_cooldown_slots=19,
    )
    random_jammer = make_attacker(replace(config, attacker="random"), rng)
    assert {random_jammer.step(0) for _ in range(1000)} == set(range(7))
    reactive = make_attacker(replace(config, attacker="reactive"), rng)
    assert (reactive.num_channels, reactive.idle_trigger, reactive.dwell) == (7, 3, 5)
    phased = make_attacker(replace(config, attacker="phased"), rng)
    assert (phased.num_channels, phased.listen_len, phased.eval_len, phased._retrain_below) == (7, 11, 13, 0.25 * 13)
    assert make_attacker(replace(config, attacker="bandit"), rng).sampler.num_arms == 7
    # The oracle jams 17 slots, then stays dark for 19, cycle after cycle.
    oracle = make_attacker(replace(config, attacker="oracle"), rng)
    assert [oracle.step(4) for _ in range(72)] == ([4] * 17 + [None] * 19) * 2


# The generator calls each jammer makes: the random jammer draws its channels
# in blocks and the bandit its posterior samples; the rest never draw.
JAMMER_DRAWS = {"random": "integers", "reactive": None, "bandit": "beta", "phased": None, "oracle": None}


@pytest.mark.parametrize("name", list(ATTACKERS))
def test_a_jammer_draws_only_from_its_own_generator(name, counting_rng):
    # Built the way the engine builds it, the jammer gets no other generator:
    # neither numpy's nor Python's global random state moves while it plays.
    numpy_state, python_state = np.random.get_state(), random.getstate()
    j = make_attacker(ScenarioConfig(attacker=name), counting_rng)
    emitted = [drive(j, 4) for _ in range(5_000)]
    assert 4 in emitted
    draws = JAMMER_DRAWS[name]
    if draws is None:
        assert not counting_rng.calls
    else:
        assert set(counting_rng.calls) == {draws} and counting_rng.calls[draws] > 0
    assert random.getstate() == python_state
    assert all(np.array_equal(a, b) for a, b in zip(np.random.get_state(), numpy_state))


# --- quiet: a harmless stretch played at once ---------------------------------


def clone(jammer):
    """A copy of the jammer that plays on alone.

    Its lists and deques hold only numbers, so one level deep is enough; a
    generator and the bandit's sampler are copied whole.
    """
    twin = copy.copy(jammer)
    twin.__dict__ = {
        name: copy.deepcopy(value) if isinstance(value, (np.random.Generator, ThompsonSampler)) else copy.copy(value)
        for name, value in vars(jammer).items()
    }
    return twin


def observable(jammer, upcoming):
    """The jammer as the coming slots can tell it: a copy of its attributes.

    A random jammer's channels to come stand in for its block, cursor and
    generator, ``upcoming`` of them: a block read ahead sits behind the
    unspent channels, so only the order they come in can be compared. A
    bandit may have selected its next arm already: a copy of it after its
    next step stands in for it, with the arm that step plays. Its sampler
    has no ``__eq__``: its posteriors, windows and unspent samples per state
    stand in for it, and its generator's state for the generator.
    """
    if isinstance(jammer, BanditJammer):
        twin = clone(jammer)
        arm = twin.step(0)
        sampler = twin.sampler
        return {
            "sensing_channel": jammer.sensing_channel,
            "next": arm,
            "arms": sampler.arms,
            "windows": [list(history) for history in sampler._history],
            "pool": {state: list(store) for state, store in sampler._pool.items() if store},
            "rng": twin._rng.bit_generator.state,
        }
    if not isinstance(jammer, RandomJammer):
        return vars(clone(jammer))
    twin = clone(jammer)
    hidden = {"_block", "_next", "_rng"}
    seen = {name: value for name, value in vars(twin).items() if name not in hidden}
    seen["upcoming"] = [twin.step(0) for _ in range(upcoming)]
    return seen


def harmless_slots(jammer, victim_channel, most):
    """The jammer after each of its next harmless slots, at most ``most``, played one by one, with the slot's emission.

    Entry ``k`` is (jammer, emission) after ``k`` slots of
    ``step(victim_channel)`` then, while it senses,
    ``observe(sensing_channel == victim_channel)``; the list stops before
    the first slot ``step`` emits on the victim's channel in.
    """
    jammer = clone(jammer)
    slots = [(clone(jammer), None)]
    while len(slots) <= most:
        emit = jammer.step(victim_channel)
        if emit == victim_channel:
            break
        if jammer.sensing_channel is not None:
            jammer.observe(jammer.sensing_channel == victim_channel)
        slots.append((clone(jammer), emit))
    return slots


class Steady:
    """A defender's ``steady``: the victim stays for at most ``cap`` slots; it records what it was asked."""

    def __init__(self, cap=None):
        self.cap = cap
        self.asked = []

    def __call__(self, limit):
        self.asked.append(limit)
        return limit if self.cap is None else min(limit, self.cap)


def check_quiet(jammer, victim_channel, most):
    """``quiet`` at every limit and every defender horizon from 0 to ``most`` against ``harmless_slots``.

    A limit cuts the stretch as a horizon does, and a jammer that would
    hit at once does not ask the defender. Returns the stretch's length.
    """
    slots = harmless_slots(jammer, victim_channel, most)
    upcoming = most + 3 * attacker_module._RANDOM_BLOCK
    for cut in range(most + 1):
        for steady, limit in ((Steady(), cut), (Steady(cut), most)):
            fast = clone(jammer)
            played, emit = fast.quiet(victim_channel, steady, limit)
            assert played == min(cut, len(slots) - 1), cut
            want, want_emit = slots[played]
            assert emit == want_emit, cut
            assert observable(fast, upcoming) == observable(want, upcoming), cut
            assert all(asked <= limit for asked in steady.asked)
            if len(slots) == 1:
                assert not steady.asked
    return len(slots) - 1


# Where the victim sits while a jammer warms up: (channel, slots) runs, the
# channel taken modulo the channel count, so the jammer is left camping,
# scanning, listening, attacking or anywhere in its duty cycle.
VICTIM_RUNS = st.lists(st.tuples(st.integers(0, 1023), st.integers(1, 80)), max_size=8)


def warm_up(jammer, runs, num_channels):
    for channel, slots in runs:
        for _ in range(slots):
            drive(jammer, channel % num_channels)


@pytest.mark.parametrize("num_channels", [2, 7])
@settings(max_examples=30)
@given(block=st.integers(1, 9), runs=VICTIM_RUNS, victim=st.integers(0, 1023))
def test_random_quiet_is_its_harmless_slots_played_one_by_one(num_channels, block, runs, victim):
    # Small blocks put block ends inside the stretches.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attacker_module, "_RANDOM_BLOCK", block)
        j = build(RandomJammer, num_channels=num_channels)
        warm_up(j, runs, num_channels)
        check_quiet(j, victim % num_channels, 6 * num_channels)


@pytest.mark.parametrize("num_channels", [2, 7, 1024])
@settings(max_examples=30)
@given(idle_trigger=st.integers(1, 8), dwell=st.integers(1, 3), runs=VICTIM_RUNS, victim=st.integers(0, 1023))
def test_reactive_quiet_is_its_silent_slots_played_one_by_one(num_channels, idle_trigger, dwell, runs, victim):
    # Harmless slots, the rest of a camp the victim has left included.
    j = build(ReactiveJammer, num_channels=num_channels, idle_trigger_slots=idle_trigger, reactive_dwell_slots=dwell)
    warm_up(j, runs, num_channels)
    # Past a camp and a whole scan cycle: every stretch ends on the victim's channel.
    check_quiet(j, victim % num_channels, idle_trigger + 2 * num_channels * dwell + 1)


@pytest.mark.parametrize("num_channels", [2, 7, 1024])
@settings(max_examples=30)
@given(
    listen_len=st.integers(1, 300),
    eval_len=st.integers(1, 30),
    retrain_trigger=st.sampled_from((0.0, 0.3, 0.6)),
    runs=VICTIM_RUNS,
    victim=st.integers(0, 1023),
)
def test_phased_quiet_is_its_silent_slots_played_one_by_one(
    num_channels, listen_len, eval_len, retrain_trigger, runs, victim
):
    # Harmless slots, attacking misses and retrains included.
    knobs = dict(listen_len_slots=listen_len, eval_len_slots=eval_len, retrain_trigger=retrain_trigger)
    j = build(PhasedJammer, num_channels=num_channels, **knobs)
    warm_up(j, runs, num_channels)
    # Past the listen and a sweep of attacking misses, or 80 of them.
    check_quiet(j, victim % num_channels, listen_len + 2 * min(num_channels, 40))


@pytest.mark.parametrize("num_channels", [2, 1024])
@settings(max_examples=30)
@given(burst=st.integers(1, 60), cooldown=st.integers(0, 60), runs=VICTIM_RUNS, victim=st.integers(0, 1023))
def test_oracle_quiet_is_its_silent_slots_played_one_by_one(num_channels, burst, cooldown, runs, victim):
    j = build(OracleJammer, num_channels=num_channels, oracle_burst_slots=burst, oracle_cooldown_slots=cooldown)
    warm_up(j, runs, num_channels)
    check_quiet(j, victim % num_channels, 3 * (burst + cooldown))


@pytest.mark.parametrize("num_channels", [2, 12])
@settings(max_examples=30)
@given(runs=VICTIM_RUNS, victim=st.integers(0, 1023))
def test_bandit_quiet_is_its_harmless_slots_played_one_by_one(num_channels, runs, victim):
    # Misses rewarded 0 and the next arm selected, slot after slot, after
    # at least one slot played one by one, as in a run.
    j = build(BanditJammer, num_channels=num_channels)
    warm_up(j, [(victim, 1), *runs], num_channels)
    check_quiet(j, victim % num_channels, 4 * num_channels)


def count_selections(jammer):
    """Count the bandit's selections from now on: a list holding the count."""
    selections = [0]
    select_arm = jammer.sampler.select_arm

    def counted(rng):
        selections[0] += 1
        return select_arm(rng)

    jammer.sampler.select_arm = counted
    return selections


def test_bandit_quiet_with_its_next_arm_on_the_victim_asks_nothing():
    j = build(BanditJammer, seed=5)
    for _ in range(400):
        drive(j, 4)
    before = observable(j, 0)
    selections = count_selections(j)
    steady = Steady()
    assert j.quiet(4, steady, 10) == (0, None)
    assert not steady.asked
    assert observable(j, 0) == before
    # The next slot plays the arm quiet selected and selects no other.
    assert j.step(4) == 4
    assert selections == [1]


def test_bandit_quiet_within_a_horizon_of_0_leaves_the_jammer_as_it_was():
    # The smart hopper on a probe visit stays for no slot.
    j = build(BanditJammer, seed=3)
    for _ in range(30):
        drive(j, 0)
    victim = (clone(j).step(0) + 1) % 12
    before = observable(j, 0)
    steady = Steady(0)
    assert j.quiet(victim, steady, 10) == (0, None)
    assert steady.asked == [10]
    assert observable(j, 0) == before


def test_building_a_bandit_draws_nothing(counting_rng):
    j = make_attacker(ScenarioConfig(attacker="bandit"), counting_rng)
    assert not counting_rng.calls
    j.step(0)
    assert counting_rng.calls["beta"] > 0


@pytest.mark.parametrize("cap", [1, 3, None])
def test_every_slot_of_a_bandit_stretch_is_one_step_and_one_selection(cap):
    # Each slot quiet plays goes through the jammer's step and selects once,
    # and the arm selected for the slot after the stretch is played by the
    # next step, which selects nothing; a stretch cut by the horizon selects
    # no arm past it.
    j = build(BanditJammer, seed=2)
    for _ in range(50):
        drive(j, 7)
    selections = count_selections(j)
    steps = [0]
    step = j.step

    def counted_step(victim_channel):
        steps[0] += 1
        return step(victim_channel)

    j.step = counted_step
    victim = 11
    played, _ = j.quiet(victim, Steady(cap), 60)
    assert steps == [played]
    if cap is None:
        # The stretch ends where the next arm is the victim's channel.
        assert played > 0 and j._next == victim
        assert selections == [played + 1]
    else:
        assert played == cap and j._next is None
        assert selections == [played]
    j.step(victim)
    assert steps == [played + 1] and selections == [played + 1]


def test_random_quiet_reads_the_next_block_behind_the_unspent_channels():
    j = build(RandomJammer)
    for _ in range(attacker_module._RANDOM_BLOCK - 5):
        j.step(0)
    unspent = j._block[j._next :]
    # A victim on a channel none of the last five hold: the stretch runs
    # into the next block.
    victim = min(set(range(12)) - set(unspent))
    assert check_quiet(j, victim, 60) > 5
    # A victim on the next channel: the stretch is empty.
    assert check_quiet(j, unspent[0], 60) == 0


def test_reactive_quiet_runs_a_camp_countdown_equal_to_the_limit_out():
    j = build(ReactiveJammer, idle_trigger_slots=4, reactive_dwell_slots=3)
    j.sensing_channel = 3
    drive(j, 3)
    drive(j, 8)
    assert (j.attacking, j._countdown) == (True, 3)
    assert check_quiet(j, 8, 40) == 3 + 4 * 3 + 1
    # The camp's last slot emits on the camp; the scan starts after it.
    assert j.quiet(8, Steady(), 3) == (3, 3)
    assert (j.attacking, j.sensing_channel, j._countdown) == (False, 4, 3)


def test_reactive_quiet_finds_a_victim_one_channel_past_the_camp():
    j = build(ReactiveJammer, idle_trigger_slots=4, reactive_dwell_slots=3)
    j.sensing_channel = 3
    drive(j, 3)
    assert check_quiet(j, 4, 20) == 4 + 1
    # Four camp slots, then the scan's first slot hears the victim.
    assert j.quiet(4, Steady(), 20) == (5, None)
    assert (j.attacking, j.sensing_channel, j._countdown) == (True, 4, 4)
    assert j.step(4) == 4


def test_phased_quiet_re_ranks_probes_and_retrains_inside_one_stretch(monkeypatch):
    scans = counting_ranks(monkeypatch)
    j = build(PhasedJammer, num_channels=4, listen_len_slots=4, eval_len_slots=23, retrain_trigger=0.05)
    # The listening sweep hears the victim on channels 0 and 1.
    for victim in (0, 1, 0, 0):
        drive(j, victim)
    assert j.counts == [1.0, 1.0, 0.0, 0.0]
    # Channels 0 and 1 drain in turns, each miss on the leader re-ranking
    # the map; probes then sound channels 0 to 2 of the drained map; the
    # estimate collapses on the 23rd attacking miss, and the four slots of
    # the new listen map channel 3, which the next slot jams.
    emitted = [emit for _, emit in harmless_slots(j, 3, 200)[1:]]
    assert emitted == [0, 1] * 10 + [0, 1, 2] + [None] * 4
    assert check_quiet(j, 3, 30) == len(emitted)
    # The stretch ranks the map where the slots played one by one do.
    scans[0] = 0
    twin = clone(j)
    for _ in emitted:
        drive(twin, 3)
    one_by_one = scans[0]
    scans[0] = 0
    assert j.quiet(3, Steady(), 200) == (len(emitted), None)
    assert scans[0] == one_by_one > 10
    assert (j.retrains, j.listening, j.counts) == (1, False, [0.0, 0.0, 0.0, 1.0])
    assert j.step(3) == 3


def test_phased_quiet_ends_the_listen_and_caps_the_count_inside_the_stretch():
    # 100 listening slots over 2 channels sense the victim 50 times; its
    # count stops at the cap, and the stretch ends where the listen does,
    # as the attack opens on the victim's channel.
    j = build(PhasedJammer, num_channels=2, listen_len_slots=100)
    drive(j, 0)
    assert check_quiet(j, 0, 150) == 99
    assert j.quiet(0, Steady(), 150) == (99, None)
    assert j.counts == [PHASED_COUNT_CAP, 0.0]
    assert not j.listening
    assert j.step(0) == 0


@pytest.mark.parametrize("num_channels", [5, 1024])
def test_reactive_quiet_scans_past_channel_0_to_the_victim(num_channels):
    # Camped on channel 3, the jammer loses the victim to channel 1, scans
    # silently up through the last channel and on from channel 0.
    j = build(ReactiveJammer, num_channels=num_channels, idle_trigger_slots=2, reactive_dwell_slots=3)
    j.sensing_channel = 3
    for _ in range(2):
        drive(j, 1)
    assert (j.attacking, j.sensing_channel) == (False, 4)
    assert check_quiet(j, 1, 3 * num_channels + 5) == 3 * (num_channels - 3) + 1
    j.quiet(1, Steady(), 3 * num_channels)
    assert (j.attacking, j.sensing_channel) == (True, 1)


def test_the_base_quiet_plays_the_silent_stand_ins_slots_one_by_one():
    # The base's generic loop plays every slot of a jammer that never
    # emits, up to the limit or the defender's horizon.
    assert check_quiet(Jammer(), 0, 12) == 12


# --- peek and quiet: the contract every strategy keeps ------------------------

# Short phases, so warm-ups leave each jammer camping or scanning, listening
# or attacking, retraining, or anywhere in its duty cycle.
CONTRACT_KNOBS = dict(
    idle_trigger_slots=4,
    reactive_dwell_slots=3,
    listen_len_slots=30,
    eval_len_slots=20,
    retrain_trigger=0.3,
    oracle_burst_slots=5,
    oracle_cooldown_slots=7,
)


def warmed_up(name, num_channels, runs, victim):
    """An ``ATTACKERS`` entry built with ``CONTRACT_KNOBS`` after a warm-up that ends with a slot on ``victim``."""
    j = build(ATTACKERS[name], num_channels=num_channels, **CONTRACT_KNOBS)
    warm_up(j, [*runs, (victim, 1)], num_channels)
    return j


@pytest.mark.parametrize("name", list(ATTACKERS))
@settings(max_examples=40)
@given(num_channels=st.sampled_from((2, 12)), runs=VICTIM_RUNS, victim=st.integers(0, 1023))
def test_peek_is_idempotent_and_the_next_step_plays_it(name, num_channels, runs, victim):
    victim %= num_channels
    j = warmed_up(name, num_channels, runs, victim)
    upcoming = 2 * attacker_module._RANDOM_BLOCK
    once, twice = clone(j), clone(j)
    emit = once.peek(victim)
    assert twice.peek(victim) == emit
    assert twice.peek(victim) == emit
    assert observable(twice, upcoming) == observable(once, upcoming)
    assert once.step(victim) == emit


@pytest.mark.parametrize("name", list(ATTACKERS))
@settings(max_examples=40)
@given(num_channels=st.sampled_from((2, 12)), runs=VICTIM_RUNS, victim=st.integers(0, 1023))
def test_quiet_twice_leaves_the_jammer_as_quiet_once(name, num_channels, runs, victim):
    # Two calls with no slot between them: one where the next slot hits the
    # victim, which asks the defender nothing, and one at a horizon of 0.
    victim %= num_channels
    j = warmed_up(name, num_channels, runs, victim)
    upcoming = 2 * attacker_module._RANDOM_BLOCK
    hit = clone(j).step(victim)
    for target, horizon in ((hit, None), (victim, 0)):
        if target is None:
            continue
        once, twice = clone(j), clone(j)
        assert once.quiet(target, Steady(horizon), 10) == (0, None)
        for _ in range(2):
            assert twice.quiet(target, Steady(horizon), 10) == (0, None)
        assert observable(twice, upcoming) == observable(once, upcoming)
