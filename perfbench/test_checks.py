"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench

Each check must pass the real program's outputs and reject a doctored copy.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import types
from pathlib import Path

import checks
import layers
import pytest
from tracing import Instrumentation, Tracer

ROOT = Path(__file__).resolve().parent.parent
# The reference scenario's values, as the checks read them.
REFERENCE = {
    "num_channels": 12,
    "slot_s": 0.1,
    "sim_duration_s": 1790.0,
    "attack_start_s": 10.0,
    "p_tx_w": 0.67,
    "p_rx_w": 0.34,
    "t_tx_data_s": 0.00397,
    "t_rx_data_s": 0.00695,
    "t_tx_ack_s": 0.00002,
    "t_rx_ack_s": 0.00003,
    "oracle_burst_slots": 39,
    "oracle_cooldown_slots": 154,
}


def hopwar_modules():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from hopwar import cli, engine
        from hopwar.config import ScenarioConfig
    finally:
        sys.path.remove(str(ROOT / "src"))
    return cli, engine, ScenarioConfig


def make_row(jammed: int, recovered: int, seed: int = 5, cfg: dict = REFERENCE) -> dict:
    """An ``as_row()``-shaped dict that satisfies every identity."""
    transmitted = checks.num_slots(cfg)
    delivered = transmitted - jammed
    return {
        "seed": seed,
        "transmitted": transmitted,
        "delivered": delivered,
        "jammed": jammed,
        "recovered": recovered,
        "retransmissions": jammed,
        "detections": 3,
        "hops": 3,
        "final_pdr": (delivered + recovered) / transmitted,
        "success_rate": jammed / transmitted,
        "extra_energy_j": jammed * checks.unit_retx_energy(cfg),
        "total_energy_j": 1.0,
    }


def summary_text(rows: list[dict], attacker: str = "reactive") -> str:
    means = checks.aggregate(rows)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["attacker", "defender", "runs", *means])
    writer.writerow([attacker, "random", len(rows), *(repr(v) for v in means.values())])
    return out.getvalue()


def trace_text(cfg: dict = REFERENCE) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(checks.TIMESERIES_HEADER)
    for second in range(1, checks.num_slots(cfg) // 10 + 1):
        tx, jam = second % 12, (second * 5) % 12 if second % 3 else None
        outcome = "jammed" if tx == jam else "delivered"
        writer.writerow([repr(float(second)), repr(0.9), tx, "" if jam is None else jam, outcome])
    return out.getvalue()


def test_oracle_closed_form_at_the_reference_scenario():
    assert checks.oracle_jams(REFERENCE) == 3627


def test_consistent_rows_pass():
    assert checks.check_run(make_row(3627, 3500), REFERENCE, "oracle") == []
    assert checks.check_run(make_row(1480, 1400), REFERENCE, "random") == []
    assert checks.check_run(make_row(1700, 1600), REFERENCE, "reactive") == []


def test_one_jam_moved_to_delivered_is_rejected():
    row = make_row(1700, 1600)
    row["jammed"] -= 1
    row["delivered"] += 1
    assert checks.check_run(row, REFERENCE, "reactive")


def test_oracle_count_off_by_one_is_rejected():
    assert checks.check_run(make_row(3628, 3500), REFERENCE, "oracle")
    assert checks.check_run(make_row(3626, 3500), REFERENCE, "oracle")


def test_random_jam_count_outside_the_band_is_rejected():
    lo, hi = checks.random_jam_band(REFERENCE)
    assert checks.check_run(make_row(int(hi) + 1, 10), REFERENCE, "random")
    assert checks.check_run(make_row(int(lo) - 1, 10), REFERENCE, "random")


def test_broken_identities_are_rejected():
    row = make_row(1700, 1701)
    assert checks.check_run(row, REFERENCE, "phased")
    row = make_row(1700, 1600)
    row["transmitted"] += 1
    assert checks.check_run(row, REFERENCE, "phased")


def test_summary_mean_changed_in_its_last_digit_is_rejected():
    rows = [make_row(1700 + i, 1600, seed=i) for i in range(4)]
    text = summary_text(rows)
    assert checks.check_summary(text, rows, "reactive", "random") == []
    mean_pdr = repr(checks.aggregate(rows)["mean_pdr"])
    last = mean_pdr[-1]
    doctored = mean_pdr[:-1] + ("1" if last == "9" else str(int(last) + 1))
    assert checks.check_summary(text.replace(mean_pdr, doctored), rows, "reactive", "random")


def test_trace_row_whose_outcome_disagrees_with_its_channels_is_rejected():
    text = trace_text()
    assert checks.check_timeseries(text, REFERENCE, "run") == []
    lines = text.splitlines()
    t_s, pdr, tx, jam, outcome = lines[24].split(",")
    lines[24] = ",".join([t_s, pdr, tx, jam, "delivered" if outcome == "jammed" else "jammed"])
    assert checks.check_timeseries("\n".join(lines) + "\n", REFERENCE, "run")


def test_trace_with_a_missing_row_is_rejected():
    lines = trace_text().splitlines()
    assert checks.check_timeseries("\n".join(lines[:-1]) + "\n", REFERENCE, "run")


def test_the_program_passes_every_check(tmp_path):
    cli, engine, ScenarioConfig = hopwar_modules()
    for attacker in ("random", "reactive", "bandit", "phased", "oracle"):
        config = ScenarioConfig(attacker=attacker, defender="smart", sim_duration_s=120.0, seed=3, runs=2)
        values = vars(config)
        rows = [run.as_row() for run in engine.run_batch(config).runs]
        for row in rows:
            assert checks.check_run(row, values, attacker) == []
    path = tmp_path / "oracle.cfg"
    path.write_text("attacker = oracle\nsim_duration_s = 120\nseed = 3\nruns = 2\n")
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path), "--timeseries"]) == 0
    config = ScenarioConfig(attacker="oracle", sim_duration_s=120.0, seed=3, runs=2)
    rows = [engine.run_scenario(config, seed=seed).as_row() for seed in (3, 4)]
    assert checks.check_summary((tmp_path / "summary.csv").read_text(), rows, "oracle", "random") == []
    for seed in (3, 4):
        assert checks.check_timeseries((tmp_path / f"run_{seed}.csv").read_text(), vars(config), "run") == []


def test_a_layer_the_engine_no_longer_has_is_reported_absent():
    # An engine without resolve_slot, Defender or make_attacker.
    engine = types.SimpleNamespace(
        run_scenario=lambda config, seed=None: types.SimpleNamespace(transmitted=10, hops=0, detections=0)
    )
    instrumentation = Instrumentation(engine)
    with instrumentation:
        engine.run_scenario(types.SimpleNamespace(attacker="oracle", defender="random", num_channels=12))
    traced = {"stats": instrumentation.tracer.self_times(), "rounds": 1, "overhead_us_per_slot": 1.0}
    metrics, absent = layers.per_layer(traced, instrumentation)
    assert "phy.resolve_slot_us" in absent and metrics["phy.resolve_slot_us"]["value"] == 0.0
    assert "engine.loop_self_us" not in absent
    assert set(metrics) == {name for name, _ in layers.LAYER_METRICS}


def test_tracing_leaves_outputs_unchanged_and_restores_the_engine():
    _, engine, ScenarioConfig = hopwar_modules()
    config = ScenarioConfig(attacker="bandit", defender="smart", sim_duration_s=60.0, seed=9)
    plain = engine.run_scenario(config).as_row()
    original = engine.resolve_slot
    instrumentation = Instrumentation(engine)
    with instrumentation:
        traced = engine.run_scenario(config).as_row()
    assert traced == plain
    assert engine.resolve_slot is original
    stats = instrumentation.tracer.self_times()
    assert stats["bandit.select_arm"][0] == stats["attacker.bandit.step"][0] > 0
    assert instrumentation.rng.calls > 0 and instrumentation.rng.drawn >= instrumentation.rng.calls


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tracer.self_times()
    assert stats["inner"][0] == 3 and stats["outer"][0] == 1
    duration = tracer.ends[0] - tracer.starts[0]
    assert stats["outer"][1] + stats["inner"][1] == pytest.approx(duration)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == layers.LAYER_METRICS
