"""The three workloads: their inputs, their timed rounds and their traced runs.

A round is the same fixed set of simulations every time, so a run of any
length attempts whole rounds and every round's outputs can be compared with
the first. A round's time covers its simulations only: each ``run_batch``
call or ``hopwar run`` process is timed on its own, with the steal counter
read around it, and followed by one ``hostspeed`` reference loop; checks run
between rounds. A run starts rounds until ``seconds`` of wall time, all of
it counted, have passed.

* ``random-hopper`` / ``smart-hopper``: ``run_batch`` for each of the five
  attackers against one defender, over a block of CAMPAIGN_SEEDS seeds at the
  default 1790 s scenario.
* ``cli-trace``: ``hopwar run --timeseries`` subprocesses, one per attacker in
  CLI_ATTACKERS against the random defender, CLI_RUNS seeds each.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"

ATTACKERS = ("random", "reactive", "bandit", "phased", "oracle")
CAMPAIGN_SEEDS = 4
CLI_ATTACKERS = ("reactive", "oracle")
CLI_RUNS = 4
# Scenario keys the CLI config files spell out; every other key keeps its
# default. These are the reference scenario's values.
CLI_SCENARIO = {
    "defender": "random",
    "slot_s": 0.1,
    "sim_duration_s": 1790.0,
    "attack_start_s": 10.0,
    "hop_enable_s": 1.0,
    "num_channels": 12,
    "detection_threshold": 0.8,
    "detection_window_slots": 192,
}
CLI_TIMEOUT_S = 120


def seed_block(seed: int) -> int:
    """First hopwar seed of the block a benchmark seed selects."""
    return random.Random(seed).randrange(1, 1_000_000)


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclasses.dataclass
class Round:
    """One round's program work, and how fast the host ran while it did it."""

    slots: int
    wall: float = 0.0
    cpu: float = 0.0
    steal: float = 0.0
    ref_cpu: float = 0.0
    refs: int = 0

    def unit(self, work):
        """Time ``work()``, then one reference loop; return what ``work()`` returns."""
        wall0, cpu0, steal0 = time.perf_counter(), cpu_seconds(), hostspeed.steal_seconds()
        try:
            return work()
        finally:
            self.wall += time.perf_counter() - wall0
            self.cpu += cpu_seconds() - cpu0
            self.steal += hostspeed.steal_seconds() - steal0
            self.ref_cpu += hostspeed.reference_cpu_seconds()
            self.refs += 1

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the cores ran the reference loop."""
        return self.ref_cpu / self.refs / hostspeed.NOMINAL_CPU_S

    @property
    def adjusted_wall(self) -> float:
        """Wall time less the hypervisor's share of the busy CPU time, at nominal core speed."""
        return self.wall * self.cpu / (self.cpu + self.steal) / self.slowdown

    @property
    def adjusted_cpu(self) -> float:
        """CPU time at nominal core speed."""
        return self.cpu / self.slowdown


@dataclasses.dataclass
class Timed:
    """What the timed rounds of one run did and what they measured."""

    rounds: list[Round] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    started: float = dataclasses.field(default_factory=time.perf_counter)

    def more(self, seconds: float) -> bool:
        """Whether to start another round: always a first, then until ``seconds`` have passed."""
        return not self.rounds or time.perf_counter() - self.started < seconds


def _values(config) -> dict:
    return dataclasses.asdict(config)


# --- campaigns ---------------------------------------------------------------


def campaign_configs(defender: str, seed: int) -> list:
    """One validated ``ScenarioConfig`` per attacker, all on the same seed block."""
    from hopwar.config import ScenarioConfig, validate

    base = seed_block(seed)
    configs = [ScenarioConfig(attacker=a, defender=defender, seed=base, runs=CAMPAIGN_SEEDS) for a in ATTACKERS]
    for config in configs:
        validate(config)
    return configs


def _campaign_round(configs, run_batch, timed: Timed, round_: Round) -> dict[str, list[dict]]:
    rows = {}
    for config in configs:
        timed.attempted += config.runs
        try:
            rows[config.attacker] = [run.as_row() for run in round_.unit(lambda: run_batch(config).runs)]
        except Exception:
            print(f"perfbench: run_batch({config.attacker} vs {config.defender}) failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            timed.failed += config.runs
    return rows


def run_campaign(configs, seconds: float) -> Timed:
    from hopwar.engine import run_batch, run_scenario

    timed = Timed()
    slots = sum(config.runs * checks.num_slots(_values(config)) for config in configs)
    reference = None
    while timed.more(seconds):
        round_ = Round(slots)
        rows = _campaign_round(configs, run_batch, timed, round_)
        timed.rounds.append(round_)
        if reference is None:
            reference = rows
            for config in configs:
                for row in rows.get(config.attacker, []):
                    timed.problems += checks.check_run(row, _values(config), config.attacker)
        for attacker, got in rows.items():
            timed.problems += checks.check_same_rows(got, reference.get(attacker, []), f"{attacker} round repeat")
    for config in configs:
        if config.attacker in reference:
            again = [run_scenario(config, seed=config.seed).as_row()]
            timed.problems += checks.check_same_rows(again, reference[config.attacker][:1], f"{config.attacker} re-run")
    return timed


def trace_campaign(configs, seconds: float, instrumentation) -> dict:
    """Alternate an untraced and a traced round of one seed per attacker."""
    from hopwar import engine

    mini = [dataclasses.replace(config, runs=1) for config in configs]
    slots = sum(checks.num_slots(_values(config)) for config in mini)

    def one_round() -> dict:
        return {config.attacker: [r.as_row() for r in engine.run_batch(config).runs] for config in mini}

    result = _alternate(one_round, slots, len(mini), seconds, instrumentation, extra=None)
    for config in mini:
        for row in result["last_outputs"][config.attacker]:
            result["problems"] += checks.check_run(row, _values(config), config.attacker)
    return result


def _alternate(one_round, slots: int, runs: int, seconds: float, instrumentation, extra) -> dict:
    """Untraced round, traced round, ``extra()``; again until ``seconds`` have passed.

    ``slots`` and ``runs`` are what one round simulates.
    """
    plain, traced, stats, problems = [], [], {}, []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        expected = one_round()
        plain.append(time.perf_counter() - t0)
        instrumentation.tracer.clear()
        instrumentation.tracer.calibrate()
        instrumentation.runs.clear()
        with instrumentation:
            t0 = time.perf_counter()
            got = one_round()
            traced.append(time.perf_counter() - t0)
        if got != expected:
            problems.append("traced round gave other outputs than the untraced round")
        for name, (calls, ns) in instrumentation.tracer.self_times().items():
            total = stats.get(name, (0, 0))
            stats[name] = (total[0] + calls, total[1] + ns)
        if extra is not None:
            extra()
    overhead = (statistics.median(traced) - statistics.median(plain)) / slots * 1e6
    return {
        "stats": stats,
        "rounds": len(traced),
        "attempted": len(traced) * 2 * runs,
        "problems": problems,
        "overhead_us_per_slot": overhead,
        "plain_s": plain,
        "traced_s": traced,
        "last_outputs": got,
    }


# --- cli-trace ---------------------------------------------------------------


def cli_text(attacker: str, base: int, **changes) -> str:
    values = {"attacker": attacker, **CLI_SCENARIO, "seed": base, "runs": CLI_RUNS, **changes}
    lines = ["# generated by perfbench"] + [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


class CliInputs:
    """Config files for one cli-trace run, written under ``perfbench_out/cli-trace``."""

    def __init__(self, seed: int) -> None:
        self.dir = OUT / "cli-trace"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        base = seed_block(seed)
        self.configs: dict[str, Path] = {}
        for attacker in CLI_ATTACKERS:
            path = self.dir / f"{attacker}.cfg"
            path.write_text(cli_text(attacker, base))
            self.configs[attacker] = path
        self.probe = self.dir / "probe.cfg"
        one_slot = CLI_SCENARIO["slot_s"]
        self.probe.write_text(cli_text(CLI_ATTACKERS[0], base, sim_duration_s=one_slot, runs=1))

    def out_dir(self, attacker: str) -> Path:
        return self.dir / f"out_{attacker}"

    def argv(self, config: Path, out_dir: Path, timeseries: bool = True) -> list[str]:
        args = ["run", "--config", str(config), "--out-dir", str(out_dir)]
        return args + ["--timeseries"] if timeseries else args


def _hopwar(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hopwar", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def cli_setup_probe(inputs: CliInputs) -> float:
    """Wall time of one cold ``hopwar run`` of a single slot.

    It starts the interpreter, imports hopwar, loads and validates a config
    file, simulates one slot and writes a one-line summary.
    """
    t0 = time.perf_counter()
    proc = _hopwar(inputs.argv(inputs.probe, inputs.dir / "out_probe", timeseries=False))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def read_cli_outputs(out_dir: Path, values: dict, label: str) -> tuple[str, list[str]]:
    """``summary.csv`` text, plus the problems of every ``run_<seed>.csv``."""
    problems = []
    for i in range(values["runs"]):
        name = f"run_{values['seed'] + i}.csv"
        try:
            text = (out_dir / name).read_text()
        except OSError as exc:
            problems.append(f"{label}: {exc}")
            continue
        problems += checks.check_timeseries(text, values, f"{label}/{name}")
    try:
        summary = (out_dir / "summary.csv").read_text()
    except OSError as exc:
        problems.append(f"{label}: {exc}")
        summary = ""
    return summary, problems


def load_cli_configs(inputs: CliInputs) -> dict:
    from hopwar.config import load_config

    return {attacker: load_config(path) for attacker, path in inputs.configs.items()}


def check_cli_summaries(configs: dict, summaries: dict[str, set[str]]) -> list[str]:
    """Every summary written against in-process ``run_scenario`` runs of the same seeds."""
    from hopwar.engine import run_scenario

    problems = []
    for attacker, config in configs.items():
        rows = [run_scenario(config, seed=config.seed + i).as_row() for i in range(config.runs)]
        for row in rows:
            problems += checks.check_run(row, _values(config), attacker)
        for text in summaries.get(attacker, ()):
            problems += checks.check_summary(text, rows, attacker, config.defender)
    return problems


def run_cli(inputs: CliInputs, seconds: float) -> Timed:
    timed = Timed()
    configs = load_cli_configs(inputs)
    slots = sum(config.runs * checks.num_slots(_values(config)) for config in configs.values())
    summaries: dict[str, set[str]] = {attacker: set() for attacker in configs}
    while timed.more(seconds):
        for attacker in configs:
            shutil.rmtree(inputs.out_dir(attacker), ignore_errors=True)
        round_ = Round(slots)
        exits = {}
        for attacker, path in inputs.configs.items():
            exits[attacker] = round_.unit(lambda: _hopwar(inputs.argv(path, inputs.out_dir(attacker))))
        timed.rounds.append(round_)
        for attacker, proc in exits.items():
            config = configs[attacker]
            timed.attempted += config.runs
            if proc.returncode != 0:
                print(f"perfbench: hopwar run {attacker} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
                timed.failed += config.runs
                continue
            summary, problems = read_cli_outputs(inputs.out_dir(attacker), _values(config), attacker)
            timed.problems += problems
            summaries[attacker].add(summary)
    timed.problems += check_cli_summaries(configs, summaries)
    return timed


def trace_cli(inputs: CliInputs, seconds: float, instrumentation) -> dict:
    """Alternate untraced and traced in-process ``hopwar.cli.main`` rounds.

    Each iteration also times ``run_scenario`` of the first config's first
    seed with and without ``collect_trace``, for the cost of trace collection.
    """
    from hopwar import cli, engine

    configs = load_cli_configs(inputs)
    slots = sum(config.runs * checks.num_slots(_values(config)) for config in configs.values())
    walls: dict[bool, list[float]] = {False: [], True: []}
    first = next(iter(configs.values()))

    def time_collect_trace() -> None:
        for collect in (False, True):
            t0 = time.perf_counter()
            engine.run_scenario(first, seed=first.seed, collect_trace=collect)
            walls[collect].append(time.perf_counter() - t0)

    def one_round() -> dict:
        summaries = {}
        for attacker, path in inputs.configs.items():
            out_dir = inputs.out_dir(attacker)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(inputs.argv(path, out_dir))
            if code != 0:
                raise RuntimeError(f"hopwar.cli.main exited {code} on {attacker}")
            summaries[attacker] = (out_dir / "summary.csv").read_text()
        return summaries

    runs = sum(config.runs for config in configs.values())
    result = _alternate(one_round, slots, runs, seconds, instrumentation, extra=time_collect_trace)
    # Least of each: other load on the machine only ever adds to a run's time.
    result["trace_us_per_slot"] = (min(walls[True]) - min(walls[False])) / checks.num_slots(_values(first)) * 1e6
    problems = result["problems"]
    for attacker, config in configs.items():
        _, found = read_cli_outputs(inputs.out_dir(attacker), _values(config), attacker)
        problems += found
    problems += check_cli_summaries(configs, {a: {text} for a, text in result["last_outputs"].items()})
    return result
