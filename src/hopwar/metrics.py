"""Per-run counters, delivery accounting, and the radio energy model."""

from __future__ import annotations

from dataclasses import dataclass, field


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class PowerProfile:
    """Radio power draw per state, watts."""

    p_tx_w: float = 0.67
    p_rx_w: float = 0.34
    p_idle_w: float = 0.30


@dataclass(frozen=True)
class TimingProfile:
    """Air time per packet exchange leg, seconds."""

    t_tx_data_s: float = 0.00397
    t_rx_data_s: float = 0.00695
    t_tx_ack_s: float = 0.00002
    t_rx_ack_s: float = 0.00003


@dataclass
class EnergyLedger:
    """Accumulated seconds spent in each radio state."""

    tx_s: float = 0.0
    rx_s: float = 0.0
    idle_s: float = 0.0


def total_energy(ledger: EnergyLedger, power: PowerProfile) -> float:
    """Energy in joules for the time the ledger has accumulated."""
    return ledger.tx_s * power.p_tx_w + ledger.rx_s * power.p_rx_w + ledger.idle_s * power.p_idle_w


def retx_energy(power: PowerProfile, timing: TimingProfile) -> float:
    """Joules burned by one retransmission: the data leg plus its ack."""
    data = timing.t_tx_data_s * power.p_tx_w + timing.t_rx_data_s * power.p_rx_w
    ack = timing.t_tx_ack_s * power.p_tx_w + timing.t_rx_ack_s * power.p_rx_w
    return data + ack


@dataclass
class RunMetrics:
    """Everything one simulation run reports.

    A jammed packet goes back on the send queue and is retried next slot,
    so every jammed slot costs exactly one retransmission. A retry that
    goes through counts the original packet as recovered; only packets
    whose retry was itself jammed stay unrecovered, which is what the
    delivery ratio charges for.
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
    pdr_series: list[tuple[float, float]] = field(default_factory=list)
    trace: list[tuple] | None = None

    @property
    def retransmissions(self) -> int:
        return self.jammed

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
