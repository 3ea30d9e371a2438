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
from enum import Enum

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


class HopStrategy(str, Enum):
    RANDOM = "random"
    SMART = "smart"


class Defender:
    """Transmitter state machine for one run.

    Parameters
    ----------
    num_channels : int
        Size of the channel pool.
    strategy : HopStrategy
        Hop policy, detection-driven random or per-slot adaptive.
    window_slots : int
        Sliding window length for the delivery-ratio detector.
    threshold : float
        Detector fires when windowed PDR drops strictly below this.
    start_channel : int
        Channel occupied at t=0.
    """

    def __init__(
        self,
        num_channels: int,
        strategy: HopStrategy,
        window_slots: int,
        threshold: float,
        start_channel: int = 0,
    ) -> None:
        self.num_channels = num_channels
        self.strategy = HopStrategy(strategy)
        self.window_slots = window_slots
        self.threshold = threshold
        self.channel = start_channel
        self.hops = 0
        self.detections = 0
        self.hop_pending = False
        # Outcomes recorded since the last reset; the rest of the window is
        # the implicit successes a reset presumes, counted in ``_good``.
        self._window: deque[bool] = deque(maxlen=window_slots)
        self._good = window_slots
        # Integer firing bound: fire iff good successes < ceil(threshold * W),
        # computed once so float rounding can never fire at exactly-threshold.
        self._min_good = math.ceil(threshold * window_slots - 1e-9)
        self._pending_retry = False
        # Adaptive-policy state, used only by the SMART strategy.
        self.home = start_channel
        self.probe_target: int | None = None
        self._probing = False
        self._streak = 0
        self._since_home = 0
        self._burned: deque[int] = deque(maxlen=SMART_AVOID_RECENT)
        self._succ: list[float] | None = None
        self._fail: list[float] | None = None
        if self.strategy is HopStrategy.SMART:
            self._succ = [0.0] * num_channels
            self._fail = [0.0] * num_channels

    @property
    def pdr(self) -> float:
        """Delivery ratio over the detector window."""
        return self._good / self.window_slots

    def advance(self, rng: np.random.Generator, avoid: int | None = None) -> int:
        """Commit this slot's channel and return it.

        The random policy only moves here when a detection left a hop
        pending. The smart policy decides every slot: flee a failing home,
        re-home on the timer, sound the last failed channel, or stay put.
        """
        if self.strategy is HopStrategy.RANDOM:
            if self.hop_pending:
                self.execute_hop(rng, avoid=avoid)
            return self.channel
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
        assert self._succ is not None and self._fail is not None
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
        if self._succ is not None:
            self._learn(delivered)
        if self._good < self._min_good:
            self.detections += 1
            if self.strategy is HopStrategy.RANDOM:
                self.hop_pending = True
            self._reset_window()
            return True
        return False

    def _learn(self, delivered: bool) -> None:
        """Update the adaptive policy's decayed evidence with this slot."""
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

    def hop_random(self, rng: np.random.Generator, avoid: int | None = None) -> int:
        """Move to a uniform random channel, redrawing any sensed-busy one."""
        candidate = int(rng.integers(self.num_channels))
        while candidate == avoid:
            candidate = int(rng.integers(self.num_channels))
        self.channel = candidate
        return candidate

    def execute_hop(self, rng: np.random.Generator, avoid: int | None = None) -> int:
        self.hop_pending = False
        self.hops += 1
        return self.hop_random(rng, avoid)

    def queue_retry(self) -> None:
        """Put the undelivered head packet back on the send queue."""
        self._pending_retry = True

    def pop_retransmission(self) -> bool:
        """Consume the pending retry; True if this delivery recovered one."""
        if self._pending_retry:
            self._pending_retry = False
            return True
        return False
