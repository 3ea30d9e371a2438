"""Channel-hopping transmitter: jam detector and hop policies.

The victim transmits one packet per slot and watches its own delivery ratio
over a sliding window. When the windowed ratio drops below the detection
threshold it declares a jammer: that is, when more than a fixed budget of
failures falls in the last window of slots. Only failures since the last
reset count. A detection resets the count, as the node presumes the new
channel is clean, so each detection grants the attacker the same budget of
jams before the next one can fire, no more.

Two hop policies share that detector:

* ``random`` reacts only to detections, hopping to a uniformly random
  channel each time the detector fires.
* ``smart`` runs an adaptive policy every slot instead of waiting out the
  detector. It keeps decayed success/failure tallies per channel, flees its
  home channel after a short run of consecutive failures (avoiding the
  homes it left most recently), re-homes on a timer so it never grows
  predictable by sitting still, and sounds the channel of its last failure
  with brief probe visits to learn when that channel is usable again. For
  the smart policy the detector is telemetry: it counts confirmed attacks
  but does not drive the hops, which react faster than the window can.

Between home moves the smart policy does constant work per slot. Its
tallies are decayed on read: each channel's pair is stored as of the slot it
was last bumped, a slot's outcome brings only the channel it bumps up to
date, and a home move decays every channel to the current slot. Its probe
coins are drawn from the generator in blocks and spent in order, the same
values scalar draws give.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque

import numpy as np

# Adaptive-policy constants. Success memory decays slowly so the node keeps
# a stable notion of which channels serve it well; failure memory decays
# fast so a channel that went quiet is forgiven quickly.
SMART_SUCCESS_DECAY = 0.998
SMART_FAILURE_DECAY = 0.97
# Consecutive failed home slots that trigger a flee.
SMART_FLEE_STREAK = 2
# Most recent homes excluded when picking the next one, the one being left
# included; at most ``num_channels - 1`` of them, so a move changes channel.
SMART_AVOID_RECENT = 3
# Per-slot probability of sounding the last failed channel.
SMART_PROBE_PROB = 0.095
# Clean slots after which the node re-homes voluntarily.
SMART_REHOME_SLOTS = 45
# Probe coins drawn per generator call; a block holds the values the same
# number of scalar draws would, and nothing else draws from the stream.
SMART_COIN_BLOCK = 64
# Decay factors ``decay ** age`` for the ages a tally is usually read at,
# built with the same ``**`` the longer ages still use, so a table entry and
# the power it replaces are the same float. Most reads are one slot old.
SMART_DECAY_TABLE_LEN = 256
_SUCCESS_DECAY_POW = [SMART_SUCCESS_DECAY**k for k in range(SMART_DECAY_TABLE_LEN)]
_FAILURE_DECAY_POW = [SMART_FAILURE_DECAY**k for k in range(SMART_DECAY_TABLE_LEN)]


class BaseDefender:
    """Transmitter state shared by the hop policies: channel, counters, slot clock, detector.

    Built from ``(config, rng)``: ``config`` is the run's ``ScenarioConfig``,
    whose channel count and detector window and threshold are read once, and
    ``rng`` is the defender's own generator, the only one it draws from. The
    node starts on channel 0. A policy subclass supplies ``advance(avoid)``,
    which commits the slot's channel given the channel the attacker emitted
    on in the previous slot (None when it was silent), and may react to a
    detection in ``_on_detection``.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        self._rng = rng
        window_slots = config.detection_window_slots
        self.num_channels = config.num_channels
        self.window_slots = window_slots
        self.channel = 0
        self.hops = 0
        self.detections = 0
        # Slots recorded so far: the one slot clock of the node.
        self._now = 0
        # Slot stamps of the failures since the last reset, oldest first.
        self._failures: deque[int] = deque()
        # Integer firing bound: fire iff more than W - ceil(threshold * W) of
        # the last W slots failed, that is iff the windowed ratio is below the
        # threshold; computed once so float rounding can never fire at exactly-threshold.
        self._budget = window_slots - math.ceil(config.detection_threshold * window_slots - 1e-9)

    @property
    def pdr(self) -> float:
        """Delivery ratio over the detector window."""
        failures = self._failures
        in_window = len(failures) - bisect_right(failures, self._now - self.window_slots)
        return (self.window_slots - in_window) / self.window_slots

    def _reset_window(self) -> None:
        self._failures.clear()

    def record_and_detect(self, delivered: bool) -> bool:
        """Tick the clock and count a failure; True when the budget is spent.

        A delivery only ticks the clock. A firing clears the failures, so
        consecutive detections are always a full failure budget apart.
        """
        now = self._now = self._now + 1
        if delivered:
            return False
        failures = self._failures
        failures.append(now)
        # The new stamp is in the window, so the pruning stops at it.
        while failures[0] <= now - self.window_slots:
            failures.popleft()
        if len(failures) > self._budget:
            self.detections += 1
            self._reset_window()
            self._on_detection()
            return True
        return False

    def _on_detection(self) -> None:
        """The policy's reaction to a detection: none unless overridden."""


class RandomDefender(BaseDefender):
    """Parks on a channel until the detector fires, then hops at random.

    The hop happens when the next slot's channel is committed, to a uniform
    random channel other than the one the attacker was last sensed on.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__(config, rng)
        self.hop_pending = False

    def _on_detection(self) -> None:
        self.hop_pending = True

    def advance(self, avoid: int | None = None) -> int:
        """Commit this slot's channel, hopping first if a detection asked to."""
        if self.hop_pending:
            self.hop_pending = False
            self.hops += 1
            candidate = int(self._rng.integers(self.num_channels))
            while candidate == avoid:
                candidate = int(self._rng.integers(self.num_channels))
            self.channel = candidate
        return self.channel


class SmartDefender(BaseDefender):
    """Adaptive hopper that decides every slot; its detections are telemetry.

    ``_succ[c]`` / ``_fail[c]`` hold channel ``c``'s tallies as of slot
    ``_stamp[c]`` (slots recorded so far, ``_now``); a tally ``v`` stands for
    ``v * decay ** (_now - _stamp[c])`` today. ``_coins`` holds the unspent
    rest of the current block of probe coins, last coin first. The node is
    on a probe visit exactly when ``channel != home``: a visit goes to
    ``probe_target``, which is never the home, and every other slot is
    spent at home.
    """

    def __init__(self, config, rng: np.random.Generator) -> None:
        super().__init__(config, rng)
        self.home = 0
        self.probe_target: int | None = None
        self._streak = 0
        self._since_home = 0
        self._burned: deque[int] = deque(maxlen=min(SMART_AVOID_RECENT, self.num_channels - 1))
        self._succ = [0.0] * self.num_channels
        self._fail = [0.0] * self.num_channels
        self._stamp = [0] * self.num_channels
        self._coins: list[float] = []

    def advance(self, avoid: int | None = None) -> int:
        """Commit this slot's channel and return it.

        Flee a failing home, re-home on the timer, sound the last failed
        channel, or stay put. ``avoid`` is unused: the policy learns from
        its own outcomes. A coin is spent only when there is a channel to
        sound, exactly where a scalar ``rng.random()`` would be drawn.
        """
        self._since_home += 1
        if self._streak >= SMART_FLEE_STREAK:
            return self._move_home()
        if self._since_home >= SMART_REHOME_SLOTS:
            return self._move_home()
        if self.probe_target is not None and self.probe_target != self.home:
            coins = self._coins
            if not coins:
                coins = self._coins = self._rng.random(SMART_COIN_BLOCK).tolist()[::-1]
            if coins.pop() < SMART_PROBE_PROB:
                self.channel = self.probe_target
                return self.channel
        self.channel = self.home
        return self.channel

    def _move_home(self) -> int:
        """Leave the current home for the best channel not recently lived in.

        Moving also clears the detector's failures: the statistic belongs
        to the channel epoch it was collected on, and the node presumes the
        new home is clean, exactly as it does after a detection.
        """
        self._streak = 0
        self._since_home = 0
        self._burned.append(self.home)
        now = self._now
        means = []
        for s, f, stamp in zip(self._succ, self._fail, self._stamp):
            if not (s or f):
                # A channel never recorded on: decay keeps both tallies at 0.
                means.append(0.5)
                continue
            age = now - stamp
            if age < SMART_DECAY_TABLE_LEN:
                s *= _SUCCESS_DECAY_POW[age]
                f *= _FAILURE_DECAY_POW[age]
            else:
                s *= SMART_SUCCESS_DECAY**age
                f *= SMART_FAILURE_DECAY**age
            means.append((1.0 + s) / (2.0 + s + f))
        for ch in self._burned:
            means[ch] = -1.0
        # First maximum, as the lowest index wins a tie.
        self.home = means.index(max(means))
        self.hops += 1
        self.channel = self.home
        self._reset_window()
        return self.channel

    def record_and_detect(self, delivered: bool) -> bool:
        """Count the slot in the detector, then fold it into the decayed evidence.

        Only the channel the slot was sent on is brought up to date.
        """
        # Called directly: super() would build a proxy object every slot.
        detected = BaseDefender.record_and_detect(self, delivered)
        now = self._now
        channel = self.channel
        age = now - self._stamp[channel]
        self._stamp[channel] = now
        if age < SMART_DECAY_TABLE_LEN:
            succ = self._succ[channel] * _SUCCESS_DECAY_POW[age]
            fail = self._fail[channel] * _FAILURE_DECAY_POW[age]
        else:
            succ = self._succ[channel] * SMART_SUCCESS_DECAY**age
            fail = self._fail[channel] * SMART_FAILURE_DECAY**age
        probing = channel != self.home
        if delivered:
            succ += 1.0
            if probing:
                # The sounded channel is clear again; stop watching it.
                self.probe_target = None
            else:
                self._streak = 0
        else:
            fail += 1.0
            self.probe_target = channel
            if not probing:
                self._streak += 1
        self._succ[channel] = succ
        self._fail[channel] = fail
        return detected


# Name -> policy class, built as Cls(config, defender rng): the one place to
# add a hop policy. tests/test_golden.py walks the keys in order, so the order
# is pinned.
DEFENDERS = {"random": RandomDefender, "smart": SmartDefender}
