import os
import subprocess
import sys

import pytest

from hopwar.cli import main
from hopwar.engine import SUMMARY_HEADER


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "sim_duration_s = 30\n"
        "attacker = oracle\n"
        "oracle_cooldown_slots = 20\n"
        "seed = 11\n"
        "runs = 2\n"
    )
    return path


def test_run_writes_summary(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out)])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_HEADER)
    assert lines[1].startswith("oracle,random,2,")
    stdout = capsys.readouterr().out
    assert "mean_pdr" in stdout
    assert "wrote" in stdout


def test_flag_overrides_reach_the_output(config_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(config_file),
            "--attacker",
            "random",
            "--runs",
            "1",
            "--seed",
            "5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    row = (out / "summary.csv").read_text().splitlines()[1]
    assert row.startswith("random,random,1,")


def test_timeseries_flag_writes_one_trace_per_run(config_file, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--out-dir", str(out), "--timeseries"])
    assert code == 0
    assert (out / "run_11.csv").exists()
    assert (out / "run_12.csv").exists()
    first = (out / "run_11.csv").read_text().splitlines()
    assert first[0] == "t_s,pdr,tx_channel,jam_channel,outcome"
    assert first[1] == "1.0,1.0,0,,delivered"


def test_missing_config_file_is_exit_1(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


# warp_speed was never a key; the others are keys the model no longer has.
@pytest.mark.parametrize("key", ["warp_speed", "rssi_clean_dbm", "p_sleep_w", "payload_bytes"])
def test_bad_config_key_is_exit_1(tmp_path, capsys, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = 9\n")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["p_idle_w = -1", "p_tx_w = -0.67", "t_tx_data_s = 0.2"])
def test_impossible_energy_value_is_exit_1(tmp_path, capsys, line):
    # Each of these once ran and reported a negative energy or idle time.
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("hopwar: config error: ")


def test_bad_override_value_is_exit_1(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--runs", "many"]) == 1
    assert "bad value" in capsys.readouterr().err


def test_unwritable_out_dir_is_exit_2(config_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["run", "--config", str(config_file), "--out-dir", str(blocker / "sub")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_console_entry_point_runs(config_file, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hopwar.cli",
            "run",
            "--config",
            str(config_file),
            "--out-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize(
    "line",
    ["slot_s = nan", "attack_start_s = nan", "hop_enable_s = nan", "sim_duration_s = inf"],
)
def test_non_finite_config_value_is_exit_1(tmp_path, capsys, line):
    # An uncaught ValueError or OverflowError would fail the test here.
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("hopwar: config error: must be finite")


def test_oversized_detection_window_is_exit_1(tmp_path, capsys):
    # Larger than any deque can be; the run must never get as far as building one.
    path = tmp_path / "bad.cfg"
    path.write_text("detection_window_slots = 1000000000000000000000000000000\n")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("hopwar: config error: detection_window_slots must be at most")


def test_output_does_not_depend_on_the_core_count(config_file, tmp_path, monkeypatch):
    outputs = {}
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
        out = tmp_path / f"cores{cores}"
        assert main(["run", "--config", str(config_file), "--out-dir", str(out), "--timeseries"]) == 0
        outputs[cores] = {name: (out / name).read_bytes() for name in ("summary.csv", "run_11.csv", "run_12.csv")}
    assert outputs[1] == outputs[2]
