from dataclasses import replace

import numpy as np
import pytest

from hopwar.attacker import (
    ATTACKERS,
    BanditJammer,
    OracleJammer,
    PhasedJammer,
    RandomJammer,
    ReactiveJammer,
    make_attacker,
)
from hopwar.config import ConfigError, ScenarioConfig, validate
from hopwar.defender import DEFENDERS, Defender, RandomDefender, SmartDefender


def drive(attacker, victim_channel):
    """Run one slot of the attacker protocol against a parked victim."""
    emit = attacker.step(victim_channel)
    if attacker.sensing_channel is not None:
        attacker.observe(attacker.sensing_channel == victim_channel)
    return emit


def test_random_jammer_covers_all_channels_uniformly_enough():
    rng = np.random.default_rng(0)
    j = RandomJammer(12, rng)
    hits = [drive(j, 5) for _ in range(6000)]
    assert set(hits) == set(range(12))
    assert all(380 < hits.count(c) < 620 for c in range(12))


def test_random_jammer_is_deterministic_per_seed():
    a = RandomJammer(12, np.random.default_rng(9))
    b = RandomJammer(12, np.random.default_rng(9))
    assert [a.step(0) for _ in range(100)] == [b.step(0) for _ in range(100)]


def test_reactive_camps_while_traffic_lasts():
    j = ReactiveJammer(12, idle_trigger=10, dwell=1)
    for _ in range(50):
        assert drive(j, 0) == 0
    assert j.attacking


def test_reactive_scans_after_idle_trigger_silent_slots():
    j = ReactiveJammer(12, idle_trigger=10, dwell=1)
    drive(j, 0)
    # Victim moves to channel 7; the jammer needs 10 silent slots to notice.
    for _ in range(9):
        assert drive(j, 7) == 0
    assert j.attacking
    assert drive(j, 7) == 0
    assert not j.attacking


def test_reactive_scan_finds_the_victim_and_resumes_next_slot():
    j = ReactiveJammer(12, idle_trigger=10, dwell=1)
    drive(j, 0)
    for _ in range(10):
        drive(j, 7)
    # Scanning starts on channel 1 and is silent; with dwell=1 it reaches
    # channel 7 in six more slots and hears the victim there.
    scanned = []
    while not j.attacking:
        assert j.step(7) is None
        scanned.append(j.sensing_channel)
        j.observe(j.sensing_channel == 7)
    assert scanned == [1, 2, 3, 4, 5, 6, 7]
    assert drive(j, 7) == 7


def test_reactive_dwell_stretches_the_scan():
    j = ReactiveJammer(12, idle_trigger=10, dwell=3)
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
    rng = np.random.default_rng(1)
    j = BanditJammer(12, rng)
    arm = j.step(3)
    before = j.sampler.arms[arm]
    assert (before.alpha, before.beta) == (1.0, 1.0)
    j.observe(arm == 3)
    after = j.sampler.arms[arm]
    assert after.alpha + after.beta == 3.0


def test_bandit_locks_onto_a_parked_victim():
    rng = np.random.default_rng(5)
    j = BanditJammer(12, rng)
    hits = [drive(j, 4) for _ in range(400)]
    assert hits[-100:].count(4) >= 90


def test_phased_listens_first_and_maps_the_victim():
    j = PhasedJammer(12, listen_len=60, eval_len=50, retrain_trigger=0.05)
    for _ in range(60):
        assert j.step(8) is None
        j.observe(j.sensing_channel == 8)
    assert not j.listening
    assert j.counts[8] == max(j.counts)
    assert j.step(8) == 8


def test_phased_tracks_online_and_probes_when_the_map_drains():
    j = PhasedJammer(12, listen_len=24, eval_len=400, retrain_trigger=0.05)
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
    j = PhasedJammer(12, listen_len=12, eval_len=30, retrain_trigger=0.5)
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


def test_oracle_follows_every_victim_move_while_attacking():
    j = OracleJammer(burst_slots=10, cooldown_slots=0)
    assert j.step(3) == 3
    assert j.step(3) == 3
    assert j.step(10) == 10
    assert j.step(1) == 1


def test_oracle_duty_cycle_alternates_burst_and_silence():
    j = OracleJammer(burst_slots=2, cooldown_slots=3)
    assert j.step(5) == 5
    assert j.step(6) == 6
    # Burst spent: three dark slots regardless of where the victim goes.
    assert j.step(7) is None
    assert j.step(8) is None
    assert j.step(9) is None
    # Next burst re-locks instantly.
    assert j.step(4) == 4
    assert j.step(2) == 2
    assert j.step(2) is None


def test_oracle_rejects_empty_burst():
    with pytest.raises(ValueError):
        OracleJammer(burst_slots=0, cooldown_slots=5)


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
    for attacker, jammer_cls in attackers.items():
        for defender, defender_cls in defenders.items():
            config = ScenarioConfig(attacker=attacker, defender=defender)
            validate(config)
            assert isinstance(make_attacker(config, rng), jammer_cls)
            assert isinstance(Defender(config), defender_cls)
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
    reactive = make_attacker(replace(config, attacker="reactive"), rng)
    assert (reactive.num_channels, reactive.idle_trigger, reactive.dwell) == (7, 3, 5)
    phased = make_attacker(replace(config, attacker="phased"), rng)
    assert (phased.num_channels, phased.listen_len, phased.eval_len, phased.retrain_trigger) == (7, 11, 13, 0.25)
    oracle = make_attacker(replace(config, attacker="oracle"), rng)
    assert (oracle.burst_slots, oracle.cooldown_slots) == (17, 19)
    assert make_attacker(replace(config, attacker="bandit"), rng).sampler.num_arms == 7
