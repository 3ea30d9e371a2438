import pytest

from hopwar.metrics import (
    EnergyLedger,
    PowerProfile,
    RunMetrics,
    TimingProfile,
    retx_energy,
    total_energy,
)

POWER = PowerProfile()
TIMING = TimingProfile()


def test_retx_energy_is_the_sum_of_its_four_legs():
    expected = (
        TIMING.t_tx_data_s * POWER.p_tx_w
        + TIMING.t_rx_data_s * POWER.p_rx_w
        + TIMING.t_tx_ack_s * POWER.p_tx_w
        + TIMING.t_rx_ack_s * POWER.p_rx_w
    )
    assert retx_energy(POWER, TIMING) == pytest.approx(expected, abs=0.0)


def test_retx_energy_default_value():
    # Data leg 0.00397*0.67 + 0.00695*0.34, ack leg 0.00002*0.67 + 0.00003*0.34.
    assert retx_energy(POWER, TIMING) == pytest.approx(0.0050465, abs=1e-7)


def test_total_energy_weights_each_state():
    ledger = EnergyLedger(tx_s=1.0, rx_s=2.0, idle_s=3.0)
    expected = 0.67 + 2 * 0.34 + 3 * 0.30
    assert total_energy(ledger, POWER) == pytest.approx(expected)
    assert total_energy(EnergyLedger(), POWER) == 0.0


def test_conservation_identities():
    m = RunMetrics(seed=1, transmitted=100, delivered=80, jammed=20, recovered=15)
    assert m.transmitted == m.delivered + m.jammed
    assert m.retransmissions == m.jammed
    assert m.success_rate == pytest.approx(0.20)
    # Recovered retries are not charged against the delivery ratio.
    assert m.final_pdr == pytest.approx(0.95)


def test_empty_run_is_well_defined():
    m = RunMetrics(seed=0)
    assert m.final_pdr == 0.0
    assert m.success_rate == 0.0


def test_pdr_bounds():
    m = RunMetrics(seed=2, transmitted=50, delivered=0, jammed=50, recovered=0)
    assert m.final_pdr == 0.0
    m = RunMetrics(seed=3, transmitted=50, delivered=50, jammed=0, recovered=0)
    assert m.final_pdr == 1.0


def test_as_row_round_trips_the_counters():
    m = RunMetrics(seed=9, transmitted=10, delivered=9, jammed=1, recovered=1)
    row = m.as_row()
    assert row["seed"] == 9
    assert row["retransmissions"] == 1
    assert row["final_pdr"] == pytest.approx(1.0)
