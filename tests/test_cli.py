import gc
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopwar import cli
from hopwar.cli import main
from hopwar.config import ConfigError, ScenarioConfig, load_config
from hopwar.engine import SUMMARY_HEADER, emit_summary


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
    # The stdout line repeats every aggregate column of summary.csv to 4 places.
    stdout = capsys.readouterr().out
    columns, values = lines[0].split(",")[3:], lines[1].split(",")[3:]
    aggregates = " ".join(f"{column}={float(value):.4f}" for column, value in zip(columns, values))
    assert stdout.splitlines()[0] == f"oracle vs random: runs=2 {aggregates}"
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


def test_a_timeseries_batch_keeps_no_trace_once_written(config_file, tmp_path, monkeypatch):
    kept = []

    def summary(batch, path):
        kept.extend(run.trace for run in batch.runs)
        return emit_summary(batch, path)

    monkeypatch.setattr(cli, "emit_summary", summary)
    assert main(["run", "--config", str(config_file), "--out-dir", str(tmp_path / "out"), "--timeseries"]) == 0
    assert kept == [None, None]
    assert len((tmp_path / "out" / "run_12.csv").read_text().splitlines()) == 31


def test_bad_override_value_is_exit_1(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--runs", "many"]) == 1
    assert "bad value" in capsys.readouterr().err


def test_unwritable_out_dir_is_exit_2(config_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["run", "--config", str(config_file), "--out-dir", str(blocker / "sub")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [40, 41], ids=["caller-share", "child-share"])
def test_a_trace_that_cannot_be_written_is_exit_2_in_either_share(tmp_path, monkeypatch, capsys, seed):
    # Two shares: seeds 40 and 42 run in the caller, 41 and 43 in a child.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = tmp_path / "scenario.cfg"
    config.write_text("sim_duration_s = 10\nattacker = reactive\nseed = 40\nruns = 4\n")
    out = tmp_path / "out"
    (out / f"run_{seed}.csv").mkdir(parents=True)
    assert main(["run", "--config", str(config), "--out-dir", str(out), "--timeseries"]) == 2
    assert "cannot write results" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Spawns the command line in its argv and prints its exit code and peak RSS
# in KiB. A process's peak RSS counts the address space it had before exec,
# so the command is spawned from this small interpreter, not from pytest.
PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB, as Linux reports it")
def test_timeseries_batch_memory_does_not_grow_with_runs(tmp_path):
    peak_kib = {}
    for runs in (4, 40):
        config = tmp_path / f"runs{runs}.cfg"
        config.write_text(f"attacker = reactive\nruns = {runs}\n")
        argv = ["-m", "hopwar", "run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--timeseries"]
        proc = subprocess.run(
            [sys.executable, "-S", "-c", PEAK_RSS, *argv], capture_output=True, text=True, timeout=120
        )
        code, peak_kib[runs] = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0, proc.stderr
    # Each run's 1,790-sample trace is about 0.3 MiB: kept for every run, 36
    # more runs would add about 11 MiB.
    assert peak_kib[40] - peak_kib[4] < 2 * 1024, peak_kib


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
@example(
    chunks=[
        b"slot_s = 5e-324",
        b"sim_duration_s = 5e-324",
        b"attack_start_s = 0",
        b"hop_enable_s = 0",
        b"t_tx_data_s = 0",
        b"t_rx_ack_s = 0",
    ]
)
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


@pytest.mark.parametrize(
    "argv",
    [[], ["run"], ["run", "--config"], ["run", "--config", "scenario.cfg", "--bogus"], ["frob"]],
    ids=["no-command", "run-without-config", "config-without-path", "unknown-flag", "unknown-command"],
)
def test_usage_error_is_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: hopwar")
    assert "error: " in err


def test_help_is_exit_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hopwar run")


# --- start-up: what importing and starting hopwar loads -----------------------


def fresh_python(
    code: str, *args: str, openblas_threads: str | None = None, returncode: int = 0
) -> subprocess.CompletedProcess:
    """Run ``python -c code *args`` in a new interpreter, with ``OPENBLAS_NUM_THREADS`` unset or set."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_importing_hopwar_loads_no_numpy():
    code = "import sys, hopwar; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert fresh_python(code).stdout.strip() == "[]"


def test_importing_the_engine_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; run_batch loads it before it forks.
    code = "import sys, hopwar.engine; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    assert fresh_python(code).stdout.split() == ["True", "False"]


# How each entry path starts hopwar: ``python -m hopwar``, ``python -m
# hopwar.cli``, and the ``hopwar`` console script, which calls the function
# ``pyproject.toml`` names (checked below), as an installed script does.
ENTRY_PATHS = {
    "python -m hopwar": "import runpy; runpy.run_module('hopwar', run_name='__main__', alter_sys=True)",
    "python -m hopwar.cli": "import runpy; runpy.run_module('hopwar.cli', run_name='__main__', alter_sys=True)",
    "hopwar": "import sys; from hopwar.cli import console_main; sys.exit(console_main())",
}


def test_the_hopwar_script_runs_console_main():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["hopwar"] == "hopwar.cli:console_main"


REPORT_BLAS_THREADS_AT_EXIT = (
    "import atexit, os, sys\n"
    "atexit.register(lambda: print('OPENBLAS_NUM_THREADS', os.environ.get('OPENBLAS_NUM_THREADS')))\n"
)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")], ids=["unset", "user-set"])
@pytest.mark.parametrize("entry", list(ENTRY_PATHS))
def test_every_entry_path_defaults_blas_to_one_thread_and_keeps_a_user_value(
    entry, preset, expected, config_file, tmp_path
):
    argv = ["run", "--config", str(config_file), "--runs", "1", "--out-dir", str(tmp_path / "out")]
    proc = fresh_python(REPORT_BLAS_THREADS_AT_EXIT + ENTRY_PATHS[entry], *argv, openblas_threads=preset)
    assert (tmp_path / "out" / "summary.csv").exists()
    assert proc.stdout.splitlines()[-1] == f"OPENBLAS_NUM_THREADS {expected}"


REPORT_FREEZE_AT_EXIT = (
    "import atexit, gc\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
)


@pytest.mark.parametrize("entry", list(ENTRY_PATHS))
def test_every_entry_path_writes_the_bytes_of_main_and_freezes_the_collector_at_exit(
    entry, config_file, tmp_path, capsys
):
    def argv(out):
        return ["run", "--config", str(config_file), "--out-dir", str(out), "--timeseries"]

    assert main(argv(tmp_path / "main")) == 0
    want_stdout = capsys.readouterr().out.replace(str(tmp_path / "main"), str(tmp_path / "entry"))
    proc = fresh_python(REPORT_FREEZE_AT_EXIT + ENTRY_PATHS[entry], *argv(tmp_path / "entry"))
    assert proc.stdout == want_stdout + "frozen True\n"
    names = ["summary.csv", "run_11.csv", "run_12.csv"]
    wrote = [line for line in proc.stdout.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {tmp_path / 'entry' / name}" for name in names]
    for name in names:
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


@pytest.mark.parametrize("entry", list(ENTRY_PATHS))
def test_every_entry_path_exits_1_on_a_config_error(entry, tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("warp_speed = 9\n")
    proc = fresh_python(ENTRY_PATHS[entry], "run", "--config", str(config), returncode=1)
    assert proc.stderr.startswith("hopwar: config error:")
    assert "Traceback" not in proc.stderr


def test_in_process_main_leaves_the_collector_unfrozen(config_file, tmp_path):
    assert main(["run", "--config", str(config_file), "--out-dir", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == 0


def numpy_blas_is_openblas() -> bool:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dicts mode, or no BLAS entry
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    not Path("/proc/self/status").exists() or not numpy_blas_is_openblas(),
    reason="needs /proc and a numpy built with OpenBLAS",
)
def test_importing_the_cli_starts_no_blas_threads():
    code = (
        "import hopwar.cli\n"
        "status = open('/proc/self/status').read()\n"
        "print(next(line for line in status.splitlines() if line.startswith('Threads:')))\n"
    )
    assert fresh_python(code).stdout.split() == ["Threads:", "1"]


def test_blas_thread_count_does_not_change_the_output(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("sim_duration_s = 20\nattacker = bandit\nseed = 3\nruns = 2\n")
    outputs = {}
    for preset in (None, "2"):
        out = tmp_path / f"out_{preset}"
        argv = ["run", "--config", str(config), "--out-dir", str(out), "--timeseries"]
        fresh_python(ENTRY_PATHS["hopwar"], *argv, openblas_threads=preset)
        outputs[preset] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(outputs[None]) == ["run_3.csv", "run_4.csv", "summary.csv"]
    assert outputs[None] == outputs["2"]
