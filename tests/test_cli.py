import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopwar.cli import main
from hopwar.config import ConfigError, ScenarioConfig, load_config
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


@pytest.mark.parametrize("line", ["num_channels = 18446744073709551616", "runs = 1000000000000000000000000000000"])
def test_oversized_channel_count_or_run_count_is_exit_1(tmp_path, line):
    # num_channels = 2**64 once passed validate and died in the sampler's
    # per-arm lists; a subprocess shows any traceback on stderr.
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "hopwar", "run", "--config", str(path), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("hopwar: config error: ")
    assert "Traceback" not in proc.stderr


def test_oversized_phased_estimate_window_is_exit_1(tmp_path):
    # eval_len_slots = 10**30 once passed validate and died building the
    # phased jammer's deque with an OverflowError.
    path = tmp_path / "bad.cfg"
    path.write_text("attacker = phased\neval_len_slots = 1000000000000000000000000000000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "hopwar", "run", "--config", str(path), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("hopwar: config error: eval_len_slots must be at most")
    assert "Traceback" not in proc.stderr


def test_unbounded_slot_count_is_exit_1(tmp_path):
    # sim_duration_s = 1e12 is 10**13 slots: it once validated and would
    # have simulated for months.
    path = tmp_path / "bad.cfg"
    path.write_text("attacker = oracle\nsim_duration_s = 1e12\n")
    proc = subprocess.run(
        [sys.executable, "-m", "hopwar", "run", "--config", str(path), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def hopwar_run(config_path, out_dir, timeout=60):
    """``hopwar run`` on a config file, in a subprocess; returns the finished process."""
    return subprocess.run(
        [sys.executable, "-m", "hopwar", "run", "--config", str(config_path), "--out-dir", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_config_file_that_is_not_utf8_is_exit_1(tmp_path):
    # Reading it once raised an uncaught UnicodeDecodeError.
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"attacker = random\xff\n")
    proc = hopwar_run(path, tmp_path / "out")
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


KEYS = [f.name for f in fields(ScenarioConfig)]
CONFIG_LINES = st.tuples(
    st.sampled_from(KEYS),
    st.one_of(
        st.sampled_from(("nan", "inf", "-1", "0", "2", "5", "1e12", "", "bandit", "smart", "9" * 5000)),
        st.integers(-5, 400).map(str),
        st.floats(-10.0, 100.0).map(repr),
    ),
).map(lambda kv: f"{kv[0]} = {kv[1]}".encode())
# Slots x runs above which a valid example is dropped, to keep the test quick.
FUZZ_WORK_LIMIT = 20_000


@settings(max_examples=25)
@given(chunks=st.lists(st.one_of(CONFIG_LINES, st.binary(max_size=6)), max_size=5))
@example(chunks=[b"attacker = random\xff"])
@example(chunks=[b"sim_duration_s = 60", b"\xc3(", b"runs = 2"])
def test_fuzzed_config_file_exits_0_or_1_without_a_traceback(chunks):
    data = b"\n".join(chunks)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(data)
        try:
            config = load_config(path)
        except ConfigError:
            expected = 1
        else:
            assume(config.num_slots * config.runs <= FUZZ_WORK_LIMIT)
            expected = 0
        proc = hopwar_run(path, Path(tmp) / "out")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == expected, proc.stderr


def test_output_does_not_depend_on_the_core_count(config_file, tmp_path, monkeypatch):
    outputs = {}
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
        out = tmp_path / f"cores{cores}"
        assert main(["run", "--config", str(config_file), "--out-dir", str(out), "--timeseries"]) == 0
        outputs[cores] = {name: (out / name).read_bytes() for name in ("summary.csv", "run_11.csv", "run_12.csv")}
    assert outputs[1] == outputs[2]
