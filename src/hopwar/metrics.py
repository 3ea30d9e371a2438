"""Per-run counters, delivery accounting, and the radio energy model.

The energy formulas read the power (``p_*_w``) and air-time (``t_*_s``)
fields of a ``ScenarioConfig``, which holds their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ScenarioConfig


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def retx_energy(config: ScenarioConfig) -> float:
    """Joules burned by one retransmission: the data leg plus its ack."""
    data = config.t_tx_data_s * config.p_tx_w + config.t_rx_data_s * config.p_rx_w
    ack = config.t_tx_ack_s * config.p_tx_w + config.t_rx_ack_s * config.p_rx_w
    return data + ack


def total_energy(config: ScenarioConfig, delivered: int) -> float:
    """Joules the victim's radio draws over a run that delivered ``delivered`` packets.

    Every slot sends its data leg, a delivered slot also hears its ack, and
    the radio idles for the rest of the slot.
    """
    num_slots = config.num_slots
    tx_s = num_slots * config.t_tx_data_s
    rx_s = delivered * config.t_rx_ack_s
    idle_s = num_slots * config.slot_s - tx_s - rx_s
    return tx_s * config.p_tx_w + rx_s * config.p_rx_w + idle_s * config.p_idle_w


@dataclass
class RunMetrics:
    """Everything one simulation run reports.

    A packet that fails its slot, jammed or lost, goes back on the send
    queue and is retried next slot, so every failed slot costs exactly one
    retransmission. A retry that goes through counts the original packet as
    recovered; only packets whose retry failed too stay unrecovered, which
    is what the delivery ratio charges for.

    The run keeps its counters only; ``trace`` holds the per-period samples
    of a run simulated with ``collect_trace`` and is None otherwise.
    """

    seed: int
    transmitted: int = 0
    delivered: int = 0
    jammed: int = 0
    recovered: int = 0
    detections: int = 0
    hops: int = 0
    extra_energy_j: float = 0.0
    total_energy_j: float = 0.0
    trace: list[tuple] | None = None

    @property
    def retransmissions(self) -> int:
        return self.transmitted - self.delivered

    @property
    def final_pdr(self) -> float:
        return _safe_div(self.delivered + self.recovered, self.transmitted)

    @property
    def success_rate(self) -> float:
        return _safe_div(self.jammed, self.transmitted)

    def as_row(self) -> dict[str, float]:
        return {
            "seed": self.seed,
            "transmitted": self.transmitted,
            "delivered": self.delivered,
            "jammed": self.jammed,
            "recovered": self.recovered,
            "retransmissions": self.retransmissions,
            "detections": self.detections,
            "hops": self.hops,
            "final_pdr": self.final_pdr,
            "success_rate": self.success_rate,
            "extra_energy_j": self.extra_energy_j,
            "total_energy_j": self.total_energy_j,
        }
