import inspect
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopwar import attacker as attacker_module
from hopwar import defender as defender_module
from hopwar import engine
from hopwar.attacker import (
    ATTACKERS,
    BanditJammer,
    OracleJammer,
    PhasedJammer,
    RandomJammer,
    ReactiveJammer,
)
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
