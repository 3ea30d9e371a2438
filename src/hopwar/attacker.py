"""Jammer strategies, from blind noise to a genie with perfect knowledge.

Every strategy is a ``Jammer`` and plays its slot protocol. Strategies never
see the victim's channel directly; they only learn through their own
sensing. The one exception is the oracle, which models the strongest
possible adversary and reads the victim's channel each slot with no lag;
only its burst/cooldown duty cycle keeps it off the victim.

A strategy is added as one class built as ``Cls(config, rng)``, which reads
its own knobs from the config, plus one ``ATTACKERS`` line.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .bandit import ThompsonSampler

# Posterior memory of the adaptive jammer, in plays per arm. Shorter makes
# it re-acquire faster (stronger); longer makes it more conservative.
BANDIT_WINDOW_PLAYS = 170

# Tracker constants for the phased attacker's occupancy counts: hits add one,
# misses bleed slowly, and the cap bounds how long a stale channel can be
# milked before the tracker gives up on it.
PHASED_COUNT_CAP = 36.0
PHASED_MISS_DECREMENT = 0.11

_RANDOM_BLOCK = 4096


class Jammer:
    """The two-phase slot protocol every attacker plays; this base stays silent.

    Each strategy is its own ``ATTACKERS`` entry, a subclass built once per
    run as ``Cls(config, rng)``: ``config`` is the run's ``ScenarioConfig``,
    whose knobs it reads in ``__init__``, and ``rng`` is the attacker's own
    generator, the only one it may draw from. Each slot,
    ``step(victim_channel)`` commits the slot's action: the channel to emit
    on, or None to stay silent. ``sensing_channel`` names the channel the
    jammer listens on in that slot, or None when it senses nothing; a
    strategy sets it only when it changes, in ``__init__``, ``step`` or
    ``observe``, and the engine reads it after each ``step``. Only when it is
    set does the engine call ``observe(sensed_busy)`` after the slot
    resolves, reporting whether that channel carried the victim's
    transmission. Sensing needs no acknowledgment traffic: energy on the
    channel is enough, so a successful jam still reads as a hit.

    ``peek(victim_channel)`` returns what the next ``step(victim_channel)``
    will return, without playing the slot. It may draw or choose that
    action ahead, as ``step`` would, but calling it again draws and chooses
    nothing more.

    ``quiet(victim_channel, steady, limit)`` fast-forwards a harmless
    stretch: coming slots in which the jammer does not emit on the victim's
    channel. The engine calls it after a delivered slot, while the victim
    stays on ``victim_channel``, every packet gets through and a slot of the
    segment is left to play. ``steady(n)`` is the defender's horizon, how
    many of the coming ``n`` slots leave the victim on its channel, and can
    cost the defender work, so ``quiet`` asks it only once ``peek`` says the
    next slot misses: one about to hit returns ``(0, None)`` without asking.
    ``quiet`` plays the coming slots for as long as ``peek`` is not
    ``victim_channel``, at most ``steady(limit)`` of them, and returns
    ``(slots, emit)``: how many it played and what the last of them emitted.
    Those slots must leave the jammer, ``sensing_channel`` included, as
    that many rounds of ``step(victim_channel)`` and, while
    ``sensing_channel`` is set, ``observe(sensing_channel == victim_channel)``
    would, as far as the coming slots can tell. The slot after the stretch
    is played by ``step``.

    This base's ``quiet`` plays exactly those rounds, slot by slot, through
    the instance's ``step``, ``observe`` and ``peek``, so a strategy needs
    only those three. A strategy that overrides ``quiet`` does so with a
    closed form that plays the same slots faster.

    The base takes no arguments, emits nothing and senses nothing.
    """

    def __init__(self) -> None:
        # An instance attribute, not a class default: the engine reads it
        # every slot, and an instance attribute is the faster read.
        self.sensing_channel: int | None = None

    def step(self, victim_channel: int) -> int | None:
        return None

    def observe(self, sensed_busy: bool) -> None:
        pass

    def peek(self, victim_channel: int) -> int | None:
        return None

    def quiet(self, victim_channel: int, steady, limit: int) -> tuple[int, int | None]:
        if self.peek(victim_channel) == victim_channel:
            return 0, None
        slots = steady(limit)
        if not slots:
            return 0, None
        step, observe, peek = self.step, self.observe, self.peek
        played = 0
        while True:
            emit = step(victim_channel)
            sense = self.sensing_channel
            if sense is not None:
                observe(sense == victim_channel)
            played += 1
            if played == slots or peek(victim_channel) == victim_channel:
                return played, emit


class RandomJammer(Jammer):
    """Jams a uniformly random channel every slot. No sensing, no memory.

    Its channels are drawn in blocks and spent in order from ``_next``; a
    harmless stretch ends at the victim's channel's next place in the block.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_channels = config.num_channels
        self._rng = rng
        # The channels drawn so far that are still to come start at _next.
        self._block: list[int] = []
        self._next = 0

    def step(self, victim_channel: int) -> int | None:
        i = self._next
        self._next = i + 1
        try:
            return self._block[i]
        except IndexError:
            # Every drawn channel is spent: draw the next block.
            block = self._block = self._rng.integers(0, self.num_channels, _RANDOM_BLOCK).tolist()
            self._next = 1
            return block[0]

    def peek(self, victim_channel: int) -> int | None:
        # The next step, block draw included, with the channel put back unspent.
        channel = self.step(victim_channel)
        self._next -= 1
        return channel

    def quiet(self, victim_channel: int, steady, limit: int) -> tuple[int, int | None]:
        """Spend the channels before the victim's next one, at most ``steady(limit)`` of them.

        A block read ahead goes behind the unspent channels, where ``step``
        would have drawn it, so the channels come in the same order.
        """
        block = self._block
        start = self._next
        end = start + limit
        while True:
            try:
                harmless = block.index(victim_channel, start, end) - start
                break
            except ValueError:
                if end <= len(block):
                    harmless = limit
                    break
            # The block runs out before the limit with no victim's channel.
            del block[:start]
            end -= start
            start = self._next = 0
            block += self._rng.integers(0, self.num_channels, _RANDOM_BLOCK).tolist()
        if not harmless:
            return 0, None
        slots = steady(harmless)
        if not slots:
            return 0, None
        self._next = start + slots
        return slots, block[start + slots - 1]


class ReactiveJammer(Jammer):
    """Camps on a channel while it carries traffic, scans when it goes quiet.

    While attacking, the jammer keeps emitting on its channel and counts
    consecutive slots without sensed activity; after ``idle_trigger``
    (``idle_trigger_slots``) of them it concludes the victim left and starts
    a silent round-robin scan, dwelling ``dwell`` (``reactive_dwell_slots``)
    slots per channel. The first busy slot it hears ends the scan and the
    jammer camps there from the next slot on.

    It always senses the channel it camps on or scans, ``sensing_channel``,
    which starts at 0 and changes only when the scan moves on.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_channels = config.num_channels
        self.idle_trigger = config.idle_trigger_slots
        self.dwell = config.reactive_dwell_slots
        self.attacking = True
        self.sensing_channel = 0
        # Quiet slots left before the jammer moves on: counted from
        # ``idle_trigger`` while it camps, from ``dwell`` while it scans.
        self._countdown = self.idle_trigger

    def step(self, victim_channel: int) -> int | None:
        return self.sensing_channel if self.attacking else None

    # Its step changes nothing: the emission is fixed once the last slot is observed.
    peek = step

    def observe(self, sensed_busy: bool) -> None:
        if sensed_busy:
            # Traffic: camp here; a scan that found it jams from the next slot.
            self.attacking = True
            self._countdown = self.idle_trigger
        else:
            self._countdown -= 1
            if self._countdown <= 0:
                self.attacking = False
                self.sensing_channel = (self.sensing_channel + 1) % self.num_channels
                self._countdown = self.dwell

    def quiet(self, victim_channel: int, steady, limit: int) -> tuple[int, int | None]:
        """Camp and scan on until the slot that finds the victim, at most ``steady(limit)`` slots.

        Camped on a channel the victim has left, the jammer emits there for
        the rest of its idle countdown, then scans silently from the next
        channel on.
        """
        num_channels = self.num_channels
        dwell = self.dwell
        channel = self.sensing_channel
        countdown = self._countdown
        camp = 0
        if self.attacking:
            if channel == victim_channel:
                return 0, None
            camp = countdown
            channel = (channel + 1) % num_channels
            countdown = dwell
        # Quiet scan slots on the channels before the victim's: the rest of
        # this dwell, then a whole dwell on each channel in between.
        ahead = (victim_channel - channel) % num_channels
        misses = countdown + (ahead - 1) * dwell if ahead else 0
        # The slot after the misses finds the victim; it is silent too, and
        # the jammer camps there from the next one.
        slots = steady(min(limit, camp + misses + 1))
        if not slots:
            return 0, None
        if slots < camp:
            self._countdown -= slots
            return slots, self.sensing_channel
        # The last slot emits only if it is the camp's last.
        emit = self.sensing_channel if slots == camp else None
        scanned = slots - camp
        if scanned > misses:
            self.attacking = True
            self.sensing_channel = victim_channel
            self._countdown = self.idle_trigger
            return slots, None
        self.attacking = False
        if scanned < countdown:
            self.sensing_channel = channel
            self._countdown = countdown - scanned
        else:
            moves, spent = divmod(scanned - countdown, dwell)
            self.sensing_channel = (channel + 1 + moves) % num_channels
            self._countdown = dwell - spent
        return slots, emit


class BanditJammer(Jammer):
    """Thompson sampler over channels, rewarded by sensed occupancy.

    Each slot it folds the previous slot's sensing result into the posterior
    of the arm it played, then samples all arms and jams the argmax. The
    posteriors slide over each arm's recent plays (the victim relocates, so
    evidence must age out); beyond that there are no mode switches and no
    thresholds.

    Each slot selects its own arm once. ``peek`` selects the next slot's
    arm ahead, and ``step`` then plays that arm instead of selecting
    another. ``quiet`` keeps its own copy of the base's loop, which costs
    less per slot, and selects the next slot's arm only while the stretch
    may go on, so the sampler sees the select, update, select... order of
    slots played one by one and every selection is a slot's.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__()
        self.sampler = ThompsonSampler(config.num_channels, BANDIT_WINDOW_PLAYS)
        self._rng = rng
        # The next slot's arm when ``peek`` has selected it, else None.
        self._next: int | None = None

    def step(self, victim_channel: int) -> int | None:
        arm = self._next
        if arm is None:
            arm = self.sampler.select_arm(self._rng)
        else:
            self._next = None
        self.sensing_channel = arm
        return arm

    def observe(self, sensed_busy: bool) -> None:
        self.sampler.update(self.sensing_channel, sensed_busy)

    def peek(self, victim_channel: int) -> int | None:
        arm = self._next
        if arm is None:
            arm = self._next = self.sampler.select_arm(self._rng)
        return arm

    def quiet(self, victim_channel: int, steady, limit: int) -> tuple[int, int | None]:
        """Miss on until the next arm is the victim's channel, at most ``steady(limit)`` slots.

        Each slot is played by ``step`` and rewards its arm 0, as
        ``observe(False)`` would. Selections and updates go through the
        sampler's instance attributes, so a wrapper set on the sampler sees
        every one.
        """
        arm = self.peek(victim_channel)
        if arm == victim_channel:
            return 0, None
        slots = steady(limit)
        if not slots:
            return 0, None
        sampler = self.sampler
        select_arm, rng = sampler.select_arm, self._rng
        step, update = self.step, sampler.update
        played = 1
        while True:
            step(victim_channel)
            update(arm, 0)
            if played == slots:
                return played, arm
            following = self._next = select_arm(rng)
            if following == victim_channel:
                return played, arm
            arm = following
            played += 1


class PhasedJammer(Jammer):
    """Learns an occupancy map in a listening phase, then jams and tracks.

    The listening phase sweeps the channels round-robin for ``listen_len``
    (``listen_len_slots``) slots, counting sensed activity. The attacking
    phase jams the channel with the highest count, adjusting the map online:
    a hit reinforces the channel, a miss bleeds it. When the whole map drains
    to zero the jammer probes channels round-robin until something answers.
    A success estimate over the last ``eval_len`` (``eval_len_slots``)
    attacking slots guards the whole thing: if it falls below
    ``retrain_trigger`` the map is considered stale and the jammer goes back
    to listening from scratch.

    An attacking slot does constant work: the jammer tracks ``_best``, the
    first maximum of ``counts``, instead of scanning the map each slot. A
    full rank also records ``_below``, the largest count before ``_best``,
    and ``_above``, the largest count after it; ``_best`` stays the first
    maximum while its count stays above ``_below`` and at or above
    ``_above``, since no other count can rise without a re-rank. ``_best``
    is set to -1, and the next attacking slot re-ranks, after a probe hits a
    channel other than ``_best``, after a miss on ``_best`` breaks either
    bound, and at the end of every listening phase, the one a retrain starts
    included.

    ``peek`` looks at a pending re-rank without recording it, so it stays
    idempotent. The base's ``quiet`` plays its harmless stretches, listening
    slots, retrains and probes included, one by one through the instance's
    ``step`` and ``observe``, as the engine would.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__()
        num_channels = self.num_channels = config.num_channels
        listen_len = self.listen_len = config.listen_len_slots
        eval_len = self.eval_len = config.eval_len_slots
        self.listening = True
        self.counts = [0.0] * num_channels
        self.retrains = 0
        self._listen_left = listen_len
        self._sweep = 0
        self._probe = 0
        self._est: deque[int] = deque(maxlen=eval_len)
        self._est_sum = 0
        # Retrain when the hits in a full estimate window fall below this.
        self._retrain_below = config.retrain_trigger * eval_len
        # The tracked first maximum of counts (-1: re-rank) and its bounds.
        self._best = -1
        self._below = self._above = -1.0

    def _rank(self) -> int:
        """Scan the map for its first maximum and record its bounds."""
        counts = self.counts
        # First maximum, as the lowest index wins a tie.
        best = self._best = counts.index(max(counts))
        self._below = max(counts[:best], default=-1.0)
        self._above = max(counts[best + 1 :], default=-1.0)
        return best

    def step(self, victim_channel: int) -> int | None:
        if self.listening:
            self.sensing_channel = self._sweep
            return None
        best = self._best
        if best < 0:
            best = self._rank()
        if self.counts[best] <= 0.0:
            # Map exhausted: probe round-robin until a channel answers.
            best = self._probe
            self._probe = (best + 1) % self.num_channels
        self.sensing_channel = best
        return best

    def observe(self, sensed_busy: bool) -> None:
        counts = self.counts
        if self.listening:
            if sensed_busy:
                ch = self._sweep
                count = counts[ch] + 1.0
                counts[ch] = count if count < PHASED_COUNT_CAP else PHASED_COUNT_CAP
            self._sweep = (self._sweep + 1) % self.num_channels
            self._listen_left -= 1
            if self._listen_left <= 0:
                self.listening = False
                self._best = -1
            return
        target = self.sensing_channel
        if sensed_busy:
            hit = 1
            count = counts[target] + 1.0
            counts[target] = count if count < PHASED_COUNT_CAP else PHASED_COUNT_CAP
            if target != self._best:
                # A probe answered on a drained map: it may now lead.
                self._best = -1
        else:
            hit = 0
            count = counts[target] - PHASED_MISS_DECREMENT
            count = counts[target] = count if count > 0.0 else 0.0
            if (count <= self._below or count < self._above) and target == self._best:
                self._best = -1
        est = self._est
        filled = len(est)
        # A full estimate window drops its oldest slot as this one enters.
        self._est_sum += hit - est[0] if filled == self.eval_len else hit
        est.append(hit)
        if filled + 1 >= self.eval_len and self._est_sum < self._retrain_below:
            # The map went stale: drop it and listen again.
            self.retrains += 1
            self.listening = True
            self.counts = [0.0] * self.num_channels
            self._listen_left = self.listen_len
            est.clear()
            self._est_sum = 0

    def peek(self, victim_channel: int) -> int | None:
        if self.listening:
            return None
        counts = self.counts
        best = self._best
        if best < 0:
            best = counts.index(max(counts))
        return best if counts[best] > 0.0 else self._probe


class OracleJammer(Jammer):
    """Duty-cycled perfect follower.

    Models the strongest adversary worth simulating: while attacking it is
    on the victim's channel every single slot, no matter how the victim
    moves. What keeps it from erasing the link entirely is its duty cycle:
    after ``burst_slots`` (``oracle_burst_slots``) consecutive jams it goes
    dark for ``oracle_cooldown_slots`` before striking again. With no
    cooldown it never lets go.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__()
        self.burst_slots = config.oracle_burst_slots
        # Slot k of the run sits at position k % (burst + cooldown) of the
        # duty cycle; the burst comes first.
        self._cycle = self.burst_slots + config.oracle_cooldown_slots
        self._position = 0

    def step(self, victim_channel: int) -> int | None:
        position = self._position
        self._position = position + 1 if position + 1 < self._cycle else 0
        return victim_channel if position < self.burst_slots else None

    def peek(self, victim_channel: int) -> int | None:
        return victim_channel if self._position < self.burst_slots else None

    def quiet(self, victim_channel: int, steady, limit: int) -> tuple[int, int | None]:
        """Sit out the rest of the cooldown, at most ``steady(limit)`` slots."""
        position = self._position
        if position < self.burst_slots:
            return 0, None
        slots = steady(min(limit, self._cycle - position))
        self._position = (position + slots) % self._cycle
        return slots, None


# Name -> strategy class, built as Cls(config, attacker rng): the one place to
# add an attacker. tests/test_golden.py walks the keys in order, so the order
# is pinned.
ATTACKERS = {
    "random": RandomJammer,
    "reactive": ReactiveJammer,
    "bandit": BanditJammer,
    "phased": PhasedJammer,
    "oracle": OracleJammer,
}
