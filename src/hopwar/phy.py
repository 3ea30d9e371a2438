"""Abstract slot-level physical layer.

One packet occupies one slot. A transmission fails iff a jammer emits on the
same channel in the same slot (or the optional random-loss knob fires on an
otherwise clean slot). There is no capture, no partial overlap and no noise
floor: the attacker's sensing is modelled in the engine as a plain channel
comparison, so a slot reduces to two booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadioProfile:
    """RSSI levels (dBm) of the radio model and the random-loss probability."""

    rssi_clean_dbm: float = -40.0
    rssi_jammed_dbm: float = -120.0
    rssi_idle_dbm: float = -95.0
    rssi_occupied_dbm: float = -55.0
    occupancy_threshold_dbm: float = -80.0
    loss_prob: float = 0.0


def resolve_slot(
    tx_channel: int,
    jam_channel: int | None,
    loss_prob: float,
    rng: np.random.Generator,
) -> tuple[bool, bool]:
    """Resolve one slot of the victim's transmission; return ``(delivered, jammed)``.

    ``jam_channel`` is the channel the attacker emits on this slot, or None
    when it stays silent (listening or idle). A jam always wins over random
    loss. ``rng`` is drawn from exactly once per unjammed slot when
    ``loss_prob > 0``, and never otherwise, so the loss stream advances
    only on slots where loss can strike.
    """
    if jam_channel == tx_channel:
        return False, True
    if loss_prob > 0.0 and rng.random() < loss_prob:
        return False, False
    return True, False
