import numpy as np
import pytest

from hopwar.config import ScenarioConfig
from hopwar.defender import RandomDefender, SmartDefender


def make(window=10, threshold=0.8, channels=12):
    config = ScenarioConfig(num_channels=channels, detection_window_slots=window, detection_threshold=threshold)
    return RandomDefender(config)


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


def test_window_holds_only_outcomes_since_the_last_reset():
    # The rest of a long window is implicit successes, never stored.
    d = make(window=5000)
    for slot in range(100):
        d.record_and_detect(slot % 2 == 0)
    assert len(d._window) <= 100
    assert d.pdr == (5000 - 50) / 5000


def test_interleaved_failures_need_the_same_budget():
    # Failures spread thinly across a clean stream never accumulate
    # past the budget, so the detector stays quiet.
    d = make(window=10)
    for _ in range(50):
        assert not d.record_and_detect(False)
        for _ in range(9):
            assert not d.record_and_detect(True)


def test_hop_random_avoids_the_sensed_channel():
    d = make()
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(300):
        detect(d)
        seen.add(d.advance(rng, avoid=5))
    assert 5 not in seen
    assert seen == {c for c in range(12) if c != 5}
    assert d.hops == 300


def test_hop_random_without_avoid_covers_all_channels():
    d = make()
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(300):
        detect(d)
        seen.add(d.advance(rng))
    assert seen == set(range(12))


def smart(window=192):
    return SmartDefender(ScenarioConfig(detection_window_slots=window))


def slot(d, rng, delivered):
    """One defender slot: commit the channel, then record the outcome."""
    ch = d.advance(rng)
    d.record_and_detect(delivered)
    return ch


def test_smart_flees_after_consecutive_failures():
    d = smart()
    rng = np.random.default_rng(0)
    assert slot(d, rng, False) == 0
    assert slot(d, rng, False) == 0
    moved = d.advance(rng)
    assert moved != 0
    assert d.hops == 1


def test_smart_tolerates_scattered_failures():
    d = smart()
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert slot(d, rng, False) == 0
        assert slot(d, rng, True) == 0
    assert d.hops == 0


def test_smart_rehomes_on_the_timer_even_when_clean():
    from hopwar.defender import SMART_REHOME_SLOTS

    d = smart()
    rng = np.random.default_rng(0)
    homes = {slot(d, rng, True) for _ in range(SMART_REHOME_SLOTS - 1)}
    assert homes == {0}
    assert d.advance(rng) != 0
    assert d.hops == 1


def test_smart_avoids_recently_left_homes():
    from hopwar.defender import SMART_AVOID_RECENT

    d = smart()
    rng = np.random.default_rng(2)
    recent = [d.home]
    for _ in range(8):
        slot(d, rng, False)
        slot(d, rng, False)
        new_home = d.advance(rng)
        assert new_home not in recent[-SMART_AVOID_RECENT:]
        recent.append(new_home)
        d.record_and_detect(False)  # keep the pressure on


def test_smart_sounds_the_last_failed_channel_until_it_clears():
    d = smart()
    rng = np.random.default_rng(7)
    # A failure away from home (as during a probe visit) marks that channel.
    d.channel = 5
    d._probing = True
    d.record_and_detect(False)
    assert d.probe_target == 5
    d.channel = d.home
    # The policy occasionally visits channel 5, home otherwise. Keep the
    # stretch shorter than the re-home timer so the home stays put.
    visits = [d.advance(rng) for _ in range(40)]
    assert visits.count(5) > 0
    assert set(visits) <= {d.home, 5}
    # A clean probe visit clears the watch.
    while d.advance(rng) != 5:
        d.record_and_detect(True)
    d.record_and_detect(True)
    assert d.probe_target is None
    assert all(d.advance(rng) == d.home for _ in range(50))


def test_smart_probe_failures_do_not_build_the_flee_streak():
    d = smart()
    rng = np.random.default_rng(3)
    d.channel = 9
    d._probing = True
    for _ in range(6):
        d.record_and_detect(False)  # failed soundings of channel 9
    d._probing = False
    d.channel = d.home
    assert d.advance(rng) in (d.home, 9)
    assert d.hops == 0


def test_smart_starves_a_camping_jammer():
    # Against a jammer parked forever on the victim's starting channel,
    # the policy should learn to keep the link elsewhere: the victim's
    # long-run share of slots spent on the jammed channel stays well
    # below 2 / num_channels (occasional sounding visits keep it above
    # zero).
    jammed = 0
    d = smart()
    rng = np.random.default_rng(11)
    slots = 17900
    visits = []
    for _ in range(slots):
        ch = d.advance(rng)
        visits.append(ch == jammed)
        d.record_and_detect(ch != jammed)
    tail = visits[-(slots // 4):]
    frac = sum(tail) / len(tail)
    assert 0.0 < frac < 2.0 / 12.0


def test_smart_detection_is_telemetry_not_a_hop_trigger():
    # Three failures in a window of 10 fire the detector, but with a
    # success between each the flee streak never reaches two.
    d = smart(window=10)
    rng = np.random.default_rng(0)
    for delivered in (False, True, False, True, False):
        slot(d, rng, delivered)
    assert d.detections == 1
    assert d.advance(rng) == 0
    assert d.hops == 0


def test_execute_hop_clears_pending_and_counts():
    d = make(window=4)
    rng = np.random.default_rng(0)
    assert d.advance(rng) == 0  # no detection, no hop
    for _ in range(4):
        d.record_and_detect(False)
    assert d.hop_pending
    assert d.advance(rng, avoid=0) != 0
    assert not d.hop_pending
    assert d.hops == 1
    # Four detections before the hop still make one hop.
    assert d.advance(rng) == d.channel
    assert d.hops == 1


def test_retry_queue_collapses_repeat_failures():
    d = make()
    d.queue_retry()
    d.queue_retry()
    d.queue_retry()
    assert d.pop_retransmission()
    # Queue of one: the retried packet is the same head packet.
    assert not d.pop_retransmission()


def test_pop_without_pending_is_false():
    assert not make().pop_retransmission()
