import os

import numpy as np
import pytest

from hopwar import engine
from hopwar.config import ScenarioConfig
from hopwar.engine import (
    SUMMARY_HEADER,
    TIMESERIES_HEADER,
    component_rng,
    emit_summary,
    emit_timeseries,
    run_batch,
    run_scenario,
)
from hopwar.metrics import retx_energy


def short_config(**kw):
    base = dict(sim_duration_s=60.0, runs=1, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def test_quiet_run_delivers_everything():
    # Attack never starts inside the horizon: perfect delivery, no noise.
    cfg = short_config(attack_start_s=1e6, attacker="random")
    m = run_scenario(cfg)
    assert m.transmitted == 600
    assert m.delivered == 600
    assert m.jammed == 0
    assert m.detections == 0
    assert m.hops == 0
    assert m.final_pdr == 1.0
    assert m.success_rate == 0.0
    assert m.extra_energy_j == 0.0


def test_always_on_oracle_kills_everything_after_attack_start():
    cfg = short_config(attacker="oracle", oracle_cooldown_slots=0)
    m = run_scenario(cfg)
    assert m.delivered == cfg.attack_start_slot
    assert m.jammed == 600 - cfg.attack_start_slot
    assert m.recovered == 0
    # Budget of 39 failures per detection at the default window.
    assert m.detections == (600 - cfg.attack_start_slot) // 39
    assert m.hops == m.detections


def test_conservation_for_every_attacker():
    for attacker in ("random", "reactive", "bandit", "phased", "oracle"):
        cfg = short_config(attacker=attacker, sim_duration_s=120.0)
        m = run_scenario(cfg)
        assert m.transmitted == m.delivered + m.jammed, attacker
        assert m.retransmissions == m.jammed, attacker
        assert 0.0 <= m.final_pdr <= 1.0, attacker
        assert m.recovered <= m.jammed, attacker


def test_extra_energy_is_retransmissions_times_unit_cost():
    cfg = short_config(attacker="oracle", oracle_burst_slots=5, oracle_cooldown_slots=5)
    m = run_scenario(cfg)
    unit = retx_energy(cfg.power_profile(), cfg.timing_profile())
    assert m.extra_energy_j == pytest.approx(m.retransmissions * unit, abs=0.0)


def test_runs_are_deterministic_in_the_seed():
    cfg = short_config(attacker="bandit", sim_duration_s=90.0)
    a = run_scenario(cfg, seed=123)
    b = run_scenario(cfg, seed=123)
    c = run_scenario(cfg, seed=124)
    assert a.as_row() == b.as_row()
    assert a.pdr_series == b.pdr_series
    assert a.as_row() != c.as_row()


def test_component_streams_are_distinct_and_stable():
    d0 = component_rng(42, 0).random(4).tolist()
    d1 = component_rng(42, 1).random(4).tolist()
    assert d0 != d1
    assert d0 == component_rng(42, 0).random(4).tolist()


def test_pdr_series_cadence():
    cfg = short_config(attack_start_s=1e6)
    m = run_scenario(cfg)
    assert len(m.pdr_series) == 60
    assert m.pdr_series[0] == (1.0, 1.0)
    assert m.pdr_series[-1][0] == 60.0


def test_trace_only_when_requested():
    cfg = short_config()
    assert run_scenario(cfg).trace is None
    assert run_scenario(cfg, collect_trace=True).trace is not None


def test_trace_first_row_before_attack():
    cfg = short_config(attacker="oracle")
    m = run_scenario(cfg, collect_trace=True)
    t_s, pdr, tx, jam, outcome = m.trace[0]
    assert (t_s, pdr, tx, jam, outcome) == (1.0, 1.0, 0, None, "delivered")


def test_smart_defender_moves_under_fire():
    cfg = short_config(defender="smart", attacker="oracle", sim_duration_s=120.0)
    m = run_scenario(cfg)
    assert m.hops > 0
    assert m.delivered > 0


def test_run_batch_counts_and_seed_layout():
    cfg = short_config(runs=5, seed=100)
    batch = run_batch(cfg)
    assert len(batch.runs) == 5
    assert batch.seeds == [100, 101, 102, 103, 104]


def usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_run_batch_equals_per_seed_runs_on_any_core_count(monkeypatch, cores):
    # Five seeds split unevenly over two or three shares.
    usable_cores(monkeypatch, cores)
    cfg = short_config(runs=5, seed=40, attacker="bandit", defender="smart", sim_duration_s=30.0)
    batch = run_batch(cfg, collect_trace=True)
    assert batch.seeds == [40, 41, 42, 43, 44]
    for got in batch.runs:
        want = run_scenario(cfg, seed=got.seed, collect_trace=True)
        assert got.as_row() == want.as_row()
        assert got.pdr_series == want.pdr_series
        assert got.trace == want.trace


def test_run_batch_raises_a_childs_exception_and_leaves_no_child(monkeypatch):
    usable_cores(monkeypatch, 2)
    real_run_scenario = engine.run_scenario

    def failing(config, seed=None, collect_trace=False):
        if seed == 41:  # dealt to the child's share
            raise KeyError("seed 41")
        return real_run_scenario(config, seed=seed, collect_trace=collect_trace)

    monkeypatch.setattr(engine, "run_scenario", failing)
    with pytest.raises(KeyError, match="seed 41"):
        run_batch(short_config(runs=5, seed=40, sim_duration_s=10.0))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_single_run_batch_never_forks(monkeypatch):
    usable_cores(monkeypatch, 2)

    def no_fork():
        raise AssertionError("run_batch forked for a single run")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_batch(short_config(runs=1)).seeds == [7]


def test_batch_aggregates_match_the_runs():
    cfg = short_config(runs=3, attacker="oracle", oracle_burst_slots=10, oracle_cooldown_slots=10)
    batch = run_batch(cfg)
    pdrs = [r.final_pdr for r in batch.runs]
    assert batch.mean_pdr == pytest.approx(sum(pdrs) / 3)
    assert batch.mean_retransmissions == pytest.approx(
        sum(r.retransmissions for r in batch.runs) / 3
    )


def test_emit_summary_layout(tmp_path):
    cfg = short_config(runs=2)
    batch = run_batch(cfg)
    path = emit_summary(batch, tmp_path / "summary.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_HEADER)
    row = lines[1].split(",")
    assert row[0] == cfg.attacker
    assert row[1] == cfg.defender
    assert row[2] == "2"
    assert len(row) == len(SUMMARY_HEADER)


def test_emit_timeseries_layout(tmp_path):
    cfg = short_config(attack_start_s=1e6)
    m = run_scenario(cfg, collect_trace=True)
    path = emit_timeseries(m, tmp_path / "run_7.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TIMESERIES_HEADER)
    assert lines[1] == "1.0,1.0,0,,delivered"
    assert len(lines) == 61


def test_emit_timeseries_requires_a_trace(tmp_path):
    m = run_scenario(short_config())
    with pytest.raises(ValueError):
        emit_timeseries(m, tmp_path / "x.csv")


def test_emitted_files_are_byte_stable(tmp_path):
    cfg = short_config(runs=2, attacker="bandit")
    a = emit_summary(run_batch(cfg), tmp_path / "a.csv").read_bytes()
    b = emit_summary(run_batch(cfg), tmp_path / "b.csv").read_bytes()
    assert a == b
