import numpy as np
import pytest

from hopwar.phy import RadioProfile, resolve_slot


class CountingRng:
    """Forwards ``random()`` to a real generator and counts the draws."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


def test_clean_delivery():
    assert resolve_slot(3, None, 0.0, CountingRng()) == (True, False)


def test_jam_on_same_channel_kills_the_packet():
    assert resolve_slot(3, 3, 0.0, CountingRng()) == (False, True)


def test_jam_on_other_channel_misses():
    assert resolve_slot(3, 7, 0.0, CountingRng()) == (True, False)


def test_occupied_level_clears_threshold():
    profile = RadioProfile()
    assert profile.rssi_occupied_dbm > profile.occupancy_threshold_dbm
    assert profile.rssi_idle_dbm < profile.occupancy_threshold_dbm


def test_loss_knob():
    # Loss applies to otherwise-clean slots only: lost, not jammed.
    assert resolve_slot(2, None, 1.0, CountingRng()) == (False, False)
    assert resolve_slot(2, 5, 1.0, CountingRng()) == (False, False)
    # A jam wins over loss.
    assert resolve_slot(2, 2, 1.0, CountingRng()) == (False, True)


def test_default_profile_consumes_no_randomness():
    rng = CountingRng()
    for jam in (None, 0, 1):
        resolve_slot(0, jam, RadioProfile().loss_prob, rng)
    assert rng.draws == 0


@pytest.mark.parametrize("loss", [0.25, 1.0])
def test_jammed_slot_consumes_no_randomness(loss):
    rng = CountingRng()
    assert resolve_slot(0, 0, loss, rng) == (False, True)
    assert rng.draws == 0


@pytest.mark.parametrize("jam", [None, 1])
def test_one_draw_per_unjammed_lossy_slot(jam):
    rng = CountingRng()
    for n in range(1, 6):
        resolve_slot(0, jam, 0.25, rng)
        assert rng.draws == n


def test_loss_follows_the_drawn_value():
    rng, fresh = CountingRng(11), np.random.default_rng(11)
    for _ in range(200):
        delivered, _ = resolve_slot(0, None, 0.5, rng)
        assert delivered == (fresh.random() >= 0.5)


@pytest.mark.parametrize("loss", [0.0, 0.25, 1.0])
def test_never_both_delivered_and_jammed(loss):
    rng = CountingRng(5)
    for jam in (None, 0, 4):
        for _ in range(20):
            delivered, jammed = resolve_slot(4, jam, loss, rng)
            assert not (delivered and jammed)
