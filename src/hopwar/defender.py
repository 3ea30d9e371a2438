"""Channel-hopping transmitter: jam detector, hop policies, retry queue.

The victim transmits one packet per slot and watches its own delivery ratio
over a sliding window. When the windowed ratio drops below the detection
threshold it declares a jammer. The window starts full of successes and is
refilled with successes after every detection: the node presumes the new
channel is clean, so each detection grants the attacker the same fixed
budget of jams before the next one can fire, no more.

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
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# Adaptive-policy constants. Success memory decays slowly so the node keeps
# a stable notion of which channels serve it well; failure memory decays
# fast so a channel that went quiet is forgiven quickly.
SMART_SUCCESS_DECAY = 0.998
SMART_FAILURE_DECAY = 0.97
# Consecutive failed home slots that trigger a flee.
SMART_FLEE_STREAK = 2
# Most recent homes excluded when picking the next one.
SMART_AVOID_RECENT = 3
# Per-slot probability of sounding the last failed channel.
SMART_PROBE_PROB = 0.095
# Clean slots after which the node re-homes voluntarily.
SMART_REHOME_SLOTS = 45


class BaseDefender:
    """Transmitter state shared by the hop policies: detector and retry queue.

    ``config`` is the run's ``ScenarioConfig``; its channel count and
    detector window and threshold are read once. The node starts on
    channel 0. A policy subclass supplies ``advance``, which commits the
    slot's channel, and may react to a detection in ``_on_detection``.
    """

    def __init__(self, config) -> None:
        window_slots = config.detection_window_slots
        self.num_channels = config.num_channels
        self.window_slots = window_slots
        self.channel = 0
        self.hops = 0
        self.detections = 0
        # Outcomes recorded since the last reset; the rest of the window is
        # the implicit successes a reset presumes, counted in ``_good``.
        self._window: deque[bool] = deque(maxlen=window_slots)
        self._good = window_slots
        # Integer firing bound: fire iff good successes < ceil(threshold * W),
        # computed once so float rounding can never fire at exactly-threshold.
        self._min_good = math.ceil(config.detection_threshold * window_slots - 1e-9)
        self._pending_retry = False

    @property
    def pdr(self) -> float:
        """Delivery ratio over the detector window."""
        return self._good / self.window_slots

    def _reset_window(self) -> None:
        self._window.clear()
        self._good = self.window_slots

    def record_and_detect(self, delivered: bool) -> bool:
        """Fold one slot outcome into the detector; True when it fires.

        A firing resets the window to all-successes, so consecutive
        detections are always a full failure budget apart.
        """
        window = self._window
        # Until the window has filled, the slot leaving it is an implicit success.
        self._good += delivered - (window[0] if len(window) == self.window_slots else True)
        window.append(delivered)
        if self._good < self._min_good:
            self.detections += 1
            self._reset_window()
            self._on_detection()
            return True
        return False

    def _on_detection(self) -> None:
        """The policy's reaction to a detection: none unless overridden."""

    def queue_retry(self) -> None:
        """Put the undelivered head packet back on the send queue."""
        self._pending_retry = True

    def pop_retransmission(self) -> bool:
        """Consume the pending retry; True if this delivery recovered one."""
        if self._pending_retry:
            self._pending_retry = False
            return True
        return False


class RandomDefender(BaseDefender):
    """Parks on a channel until the detector fires, then hops at random.

    The hop happens when the next slot's channel is committed, to a uniform
    random channel other than the one the attacker was last sensed on.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
        self.hop_pending = False

    def _on_detection(self) -> None:
        self.hop_pending = True

    def advance(self, rng: np.random.Generator, avoid: int | None = None) -> int:
        """Commit this slot's channel, hopping first if a detection asked to."""
        if self.hop_pending:
            self.hop_pending = False
            self.hops += 1
            candidate = int(rng.integers(self.num_channels))
            while candidate == avoid:
                candidate = int(rng.integers(self.num_channels))
            self.channel = candidate
        return self.channel


class SmartDefender(BaseDefender):
    """Adaptive hopper that decides every slot; its detections are telemetry."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self.home = 0
        self.probe_target: int | None = None
        self._probing = False
        self._streak = 0
        self._since_home = 0
        self._burned: deque[int] = deque(maxlen=SMART_AVOID_RECENT)
        self._succ = [0.0] * self.num_channels
        self._fail = [0.0] * self.num_channels

    def advance(self, rng: np.random.Generator, avoid: int | None = None) -> int:
        """Commit this slot's channel and return it.

        Flee a failing home, re-home on the timer, sound the last failed
        channel, or stay put. ``avoid`` is unused: the policy learns from
        its own outcomes.
        """
        self._since_home += 1
        if self._streak >= SMART_FLEE_STREAK:
            return self._move_home()
        if self._since_home >= SMART_REHOME_SLOTS:
            return self._move_home()
        if (
            self.probe_target is not None
            and self.probe_target != self.home
            and rng.random() < SMART_PROBE_PROB
        ):
            self._probing = True
            self.channel = self.probe_target
            return self.channel
        self._probing = False
        self.channel = self.home
        return self.channel

    def _move_home(self) -> int:
        """Leave the current home for the best channel not recently lived in.

        Moving also refills the detector window: the statistic belongs to
        the channel epoch it was collected on, and the node presumes the
        new home is clean, exactly as it does after a detection.
        """
        self._streak = 0
        self._since_home = 0
        self._burned.append(self.home)
        means = [(1.0 + s) / (2.0 + s + f) for s, f in zip(self._succ, self._fail)]
        means[self.home] = -1.0
        for ch in self._burned:
            means[ch] = -1.0
        # First maximum, as the lowest index wins a tie.
        self.home = means.index(max(means))
        self.hops += 1
        self._probing = False
        self.channel = self.home
        self._reset_window()
        return self.channel

    def record_and_detect(self, delivered: bool) -> bool:
        """Fold the slot into the decayed evidence, then into the detector."""
        self._succ = [s * SMART_SUCCESS_DECAY for s in self._succ]
        self._fail = [f * SMART_FAILURE_DECAY for f in self._fail]
        channel = self.channel
        if delivered:
            self._succ[channel] += 1.0
            if self._probing:
                # The sounded channel is clear again; stop watching it.
                self.probe_target = None
            else:
                self._streak = 0
        else:
            self._fail[channel] += 1.0
            self.probe_target = channel
            if not self._probing:
                self._streak += 1
        return super().record_and_detect(delivered)


# Name -> constructor from the config: the one place to add a hop policy.
# tests/test_golden.py walks the keys in order, so the order is pinned.
DEFENDERS = {"random": RandomDefender, "smart": SmartDefender}


# Keeps the engine's class-style name: the benchmark tracer wraps ``engine.Defender``.
def Defender(config) -> BaseDefender:
    """Build the defender ``config.defender`` names."""
    return DEFENDERS[config.defender](config)
