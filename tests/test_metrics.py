import pytest

from hopwar.config import ScenarioConfig
from hopwar.engine import run_scenario
from hopwar.metrics import RunMetrics, retx_energy

DEFAULTS = ScenarioConfig()


def test_retx_energy_is_the_sum_of_its_four_legs():
    expected = (
        DEFAULTS.t_tx_data_s * DEFAULTS.p_tx_w
        + DEFAULTS.t_rx_data_s * DEFAULTS.p_rx_w
        + DEFAULTS.t_tx_ack_s * DEFAULTS.p_tx_w
        + DEFAULTS.t_rx_ack_s * DEFAULTS.p_rx_w
    )
    assert retx_energy(DEFAULTS) == pytest.approx(expected, abs=0.0)


def test_retx_energy_default_value():
    # Data leg 0.00397*0.67 + 0.00695*0.34, ack leg 0.00002*0.67 + 0.00003*0.34.
    assert retx_energy(DEFAULTS) == pytest.approx(0.0050465, abs=1e-7)


def test_total_energy_weights_each_state():
    # Every slot sends its data leg and a delivered slot hears its ack; the
    # radio idles for the rest of each slot.
    for attacker in ("oracle", "random"):
        cfg = ScenarioConfig(attacker=attacker, sim_duration_s=60.0, p_tx_w=1.0, p_rx_w=2.0, p_idle_w=3.0)
        m = run_scenario(cfg)
        tx_s = m.transmitted * cfg.t_tx_data_s
        rx_s = m.delivered * cfg.t_rx_ack_s
        idle_s = m.transmitted * cfg.slot_s - tx_s - rx_s
        assert m.total_energy_j == pytest.approx(1.0 * tx_s + 2.0 * rx_s + 3.0 * idle_s, rel=1e-12)
    silent = ScenarioConfig(sim_duration_s=60.0, p_tx_w=0.0, p_rx_w=0.0, p_idle_w=0.0)
    assert run_scenario(silent).total_energy_j == 0.0


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
