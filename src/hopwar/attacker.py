"""Jammer strategies, from blind noise to a genie with perfect knowledge.

Every attacker exposes the same two-phase slot protocol: ``step`` commits to
an action for the slot (emit on a channel, or stay silent and listen), and
``observe`` afterwards reports whether the channel it acted on carried the
victim's transmission. Sensing needs no acknowledgment traffic: energy on
the channel is enough, so a successful jam still reads as a hit.

Strategies never see the victim's channel directly; they only learn through
their own sensing. The one exception is the oracle, which models the
strongest possible adversary and reads the victim's channel each slot with
no lag; only its burst/cooldown duty cycle keeps it off the victim.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

import numpy as np

from .bandit import WindowedThompsonSampler

# Posterior memory of the adaptive jammer, in plays per arm. Shorter makes
# it re-acquire faster (stronger); longer makes it more conservative.
BANDIT_WINDOW_PLAYS = 170

# Tracker constants for the phased attacker's occupancy counts: hits add one,
# misses bleed slowly, and the cap bounds how long a stale channel can be
# milked before the tracker gives up on it.
PHASED_COUNT_CAP = 36.0
PHASED_MISS_DECREMENT = 0.11

_RANDOM_BLOCK = 4096


class AttackStrategy(str, Enum):
    RANDOM = "random"
    REACTIVE = "reactive"
    BANDIT = "bandit"
    PHASED = "phased"
    ORACLE = "oracle"


class RandomJammer:
    """Jams a uniformly random channel every slot. No sensing, no memory."""

    def __init__(self, num_channels: int, rng: np.random.Generator) -> None:
        self.num_channels = num_channels
        self._rng = rng
        self._block: list[int] = []
        self._cursor = 0
        self.sensing_channel: int | None = None

    def step(self, victim_channel: int) -> int | None:
        if self._cursor >= len(self._block):
            self._block = self._rng.integers(0, self.num_channels, _RANDOM_BLOCK).tolist()
            self._cursor = 0
        channel = self._block[self._cursor]
        self._cursor += 1
        return channel

    def observe(self, sensed_busy: bool) -> None:
        pass


class ReactiveJammer:
    """Camps on a channel while it carries traffic, scans when it goes quiet.

    While attacking, the jammer keeps emitting on its channel and counts
    consecutive slots without sensed activity; after ``idle_trigger`` of
    them it concludes the victim left and starts a silent round-robin scan,
    dwelling ``dwell`` slots per channel. The first busy slot it hears ends
    the scan and the jammer camps there from the next slot on.
    """

    def __init__(self, num_channels: int, idle_trigger: int, dwell: int) -> None:
        self.num_channels = num_channels
        self.idle_trigger = idle_trigger
        self.dwell = dwell
        self.attacking = True
        self.channel = 0
        self.sensing_channel: int | None = None
        self._idle_run = 0
        self._dwell_left = dwell

    def step(self, victim_channel: int) -> int | None:
        self.sensing_channel = self.channel
        if self.attacking:
            return self.channel
        return None

    def observe(self, sensed_busy: bool) -> None:
        if self.attacking:
            if sensed_busy:
                self._idle_run = 0
            else:
                self._idle_run += 1
                if self._idle_run >= self.idle_trigger:
                    self.attacking = False
                    self.channel = (self.channel + 1) % self.num_channels
                    self._dwell_left = self.dwell
        else:
            if sensed_busy:
                # Found traffic: camp here, jamming from the next slot.
                self.attacking = True
                self._idle_run = 0
            else:
                self._dwell_left -= 1
                if self._dwell_left <= 0:
                    self.channel = (self.channel + 1) % self.num_channels
                    self._dwell_left = self.dwell


class BanditJammer:
    """Thompson sampler over channels, rewarded by sensed occupancy.

    Each slot it folds the previous slot's sensing result into the posterior
    of the arm it played, then samples all arms and jams the argmax. The
    posteriors slide over each arm's recent plays (the victim relocates, so
    evidence must age out); beyond that there are no mode switches and no
    thresholds.
    """

    def __init__(self, num_channels: int, rng: np.random.Generator) -> None:
        self.sampler = WindowedThompsonSampler(num_channels, BANDIT_WINDOW_PLAYS)
        self._rng = rng
        self._arm: int | None = None
        self.sensing_channel: int | None = None

    def step(self, victim_channel: int) -> int | None:
        self._arm = self.sampler.select_arm(self._rng)
        self.sensing_channel = self._arm
        return self._arm

    def observe(self, sensed_busy: bool) -> None:
        if self._arm is not None:
            self.sampler.update(self._arm, 1 if sensed_busy else 0)


class PhasedJammer:
    """Learns an occupancy map in a listening phase, then jams and tracks.

    The listening phase sweeps the channels round-robin for ``listen_len``
    slots, counting sensed activity. The attacking phase jams the channel
    with the highest count, adjusting the map online: a hit reinforces the
    channel, a miss bleeds it. When the whole map drains to zero the jammer
    probes channels round-robin until something answers. A success estimate
    over the last ``eval_len`` attacking slots guards the whole thing: if it
    falls below ``retrain_trigger`` the map is considered stale and the
    jammer goes back to listening from scratch.
    """

    def __init__(self, num_channels: int, listen_len: int, eval_len: int, retrain_trigger: float) -> None:
        self.num_channels = num_channels
        self.listen_len = listen_len
        self.eval_len = eval_len
        self.retrain_trigger = retrain_trigger
        self.listening = True
        self.counts = [0.0] * num_channels
        self.retrains = 0
        self.sensing_channel: int | None = None
        self._listen_left = listen_len
        self._sweep = 0
        self._probe = 0
        self._target: int | None = None
        self._est: deque[int] = deque(maxlen=eval_len)
        self._est_sum = 0

    def step(self, victim_channel: int) -> int | None:
        if self.listening:
            self.sensing_channel = self._sweep
            return None
        counts = self.counts
        best = 0
        best_count = counts[0]
        for j in range(1, self.num_channels):
            if counts[j] > best_count:
                best_count = counts[j]
                best = j
        if best_count <= 0.0:
            # Map exhausted: probe round-robin until a channel answers.
            best = self._probe
            self._probe = (self._probe + 1) % self.num_channels
        self._target = best
        self.sensing_channel = best
        return best

    def observe(self, sensed_busy: bool) -> None:
        if self.listening:
            if sensed_busy:
                ch = self._sweep
                self.counts[ch] = min(PHASED_COUNT_CAP, self.counts[ch] + 1.0)
            self._sweep = (self._sweep + 1) % self.num_channels
            self._listen_left -= 1
            if self._listen_left <= 0:
                self.listening = False
            return
        target = self._target
        if target is None:
            return
        if sensed_busy:
            self.counts[target] = min(PHASED_COUNT_CAP, self.counts[target] + 1.0)
        else:
            self.counts[target] = max(0.0, self.counts[target] - PHASED_MISS_DECREMENT)
        est = self._est
        if len(est) == self.eval_len:
            self._est_sum -= est[0]
        est.append(1 if sensed_busy else 0)
        self._est_sum += 1 if sensed_busy else 0
        if len(est) == self.eval_len and self._est_sum < self.retrain_trigger * self.eval_len:
            # The map went stale: drop it and listen again.
            self.retrains += 1
            self.listening = True
            self.counts = [0.0] * self.num_channels
            self._listen_left = self.listen_len
            self._target = None
            est.clear()
            self._est_sum = 0


class OracleJammer:
    """Duty-cycled perfect follower.

    Models the strongest adversary worth simulating: while attacking it is
    on the victim's channel every single slot, no matter how the victim
    moves. What keeps it from erasing the link entirely is its duty cycle:
    after ``burst_slots`` consecutive jams it goes dark for
    ``cooldown_slots`` before striking again. With ``cooldown_slots=0`` it
    never lets go.
    """

    def __init__(self, burst_slots: int, cooldown_slots: int) -> None:
        if burst_slots <= 0:
            raise ValueError("burst_slots must be positive")
        self.burst_slots = burst_slots
        self.cooldown_slots = cooldown_slots
        self.target: int | None = None
        self.sensing_channel: int | None = None
        self._phase_left = burst_slots
        self._attacking = True

    def step(self, victim_channel: int) -> int | None:
        if not self._attacking:
            self._phase_left -= 1
            if self._phase_left <= 0:
                self._attacking = True
                self._phase_left = self.burst_slots
            self.target = None
            return None
        self.target = victim_channel
        self._phase_left -= 1
        if self._phase_left <= 0 and self.cooldown_slots > 0:
            self._attacking = False
            self._phase_left = self.cooldown_slots
        elif self._phase_left <= 0:
            self._phase_left = self.burst_slots
        return self.target

    def observe(self, sensed_busy: bool) -> None:
        pass


Jammer = RandomJammer | ReactiveJammer | BanditJammer | PhasedJammer | OracleJammer


def make_attacker(
    strategy: AttackStrategy | str,
    num_channels: int,
    rng: np.random.Generator,
    idle_trigger: int = 58,
    reactive_dwell: int = 64,
    listen_len: int = 1000,
    eval_len: int = 400,
    retrain_trigger: float = 0.05,
    oracle_burst: int = 39,
    oracle_cooldown: int = 154,
) -> Jammer:
    strategy = AttackStrategy(strategy)
    if strategy is AttackStrategy.RANDOM:
        return RandomJammer(num_channels, rng)
    if strategy is AttackStrategy.REACTIVE:
        return ReactiveJammer(num_channels, idle_trigger, dwell=reactive_dwell)
    if strategy is AttackStrategy.BANDIT:
        return BanditJammer(num_channels, rng)
    if strategy is AttackStrategy.PHASED:
        return PhasedJammer(num_channels, listen_len, eval_len, retrain_trigger)
    return OracleJammer(oracle_burst, oracle_cooldown)
