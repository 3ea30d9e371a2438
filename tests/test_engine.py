import csv
import io
import os
import subprocess
import sys
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopwar import cli, engine
from hopwar.attacker import ATTACKERS, Jammer
from hopwar.config import ConfigError, ScenarioConfig, validate
from hopwar.defender import DEFENDERS, RandomDefender
from hopwar.engine import (
    SUMMARY_HEADER,
    TIMESERIES_HEADER,
    Defender,
    component_rng,
    emit_summary,
    emit_timeseries,
    make_attacker,
    run_batch,
    run_scenario,
    summary_row,
)
from hopwar.metrics import RunMetrics, retx_energy
from hopwar.phy import resolve_slot


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
    unit = retx_energy(cfg)
    assert m.extra_energy_j == pytest.approx(m.retransmissions * unit, abs=0.0)


def test_runs_are_deterministic_in_the_seed():
    cfg = short_config(attacker="bandit", sim_duration_s=90.0)
    a = run_scenario(cfg, seed=123, collect_trace=True)
    b = run_scenario(cfg, seed=123, collect_trace=True)
    c = run_scenario(cfg, seed=124)
    assert a.as_row() == b.as_row()
    assert a.trace == b.trace
    assert a.as_row() != c.as_row()


def test_component_streams_are_distinct_and_stable():
    d0 = component_rng(42, 0).random(4).tolist()
    d1 = component_rng(42, 1).random(4).tolist()
    assert d0 != d1
    assert d0 == component_rng(42, 0).random(4).tolist()


def test_trace_cadence():
    # One row per simulated second.
    cfg = short_config(attack_start_s=1e6)
    m = run_scenario(cfg, collect_trace=True)
    assert len(m.trace) == 60
    assert m.trace[0][:2] == (1.0, 1.0)
    assert m.trace[-1][0] == 60.0


def test_a_run_of_failures_then_a_delivery_recovers_one_packet():
    # One oracle burst of five jams in the whole run, then clean slots: the
    # send queue holds the one head packet, so five failures followed by a
    # delivery recover exactly one packet.
    cfg = short_config(attacker="oracle", oracle_burst_slots=5, oracle_cooldown_slots=10_000)
    m = run_scenario(cfg)
    assert m.jammed == 5
    assert m.recovered == 1
    assert m.delivered == 600 - 5


def test_a_delivery_with_nothing_pending_recovers_nothing():
    # No slot fails, so no delivery finds a packet waiting to be resent:
    # an empty send queue yields no recovery.
    cfg = short_config(attacker="oracle", attack_start_s=1e6)
    m = run_scenario(cfg)
    assert m.jammed == 0
    assert m.delivered == 600
    assert m.recovered == 0


def test_trace_only_when_requested():
    cfg = short_config()
    assert run_scenario(cfg).trace is None
    assert run_scenario(cfg, collect_trace=True).trace is not None


def test_trace_first_row_before_attack():
    cfg = short_config(attacker="oracle")
    m = run_scenario(cfg, collect_trace=True)
    t_s, pdr, tx, jam, outcome = m.trace[0]
    assert (t_s, pdr, tx, jam, outcome) == (1.0, 1.0, 0, None, "delivered")


@pytest.mark.parametrize(
    "bad",
    [{"loss_prob": 1.5}, {"detection_window_slots": 0}, {"attacker": "nuke"}, {"num_channels": 12.0}, {"runs": "3"}],
    ids=["loss_prob", "detection_window_slots", "attacker", "num_channels-float", "runs-str"],
)
def test_a_run_takes_only_a_valid_config(bad):
    # Unvalidated, these gave a PDR of 0.0, an IndexError, a KeyError and two
    # TypeErrors.
    with pytest.raises(ConfigError):
        run_scenario(short_config(**bad))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_a_run_takes_only_a_non_negative_int_seed(seed):
    # Unchecked, -1 raised numpy's ValueError, 1.5 and "7" a TypeError, and
    # True ran as seed 1. The argument and the config field share one rule,
    # and a good argument does not excuse a bad field.
    with pytest.raises(ConfigError, match=r"^seed must be (int|at least 0)$"):
        run_scenario(short_config(), seed=seed)
    with pytest.raises(ConfigError, match=r"^seed must be (int|at least 0)$"):
        run_scenario(short_config(seed=seed), seed=7)


def test_a_one_channel_run_is_refused_not_hung():
    # Unvalidated, a random hopper with one channel loops forever looking
    # for a channel other than the jammed one. A subprocess with a timeout
    # turns a regression into a failure instead of a stalled suite.
    code = (
        "import pytest\n"
        "from hopwar.config import ConfigError, ScenarioConfig\n"
        "from hopwar.engine import run_scenario\n"
        "with pytest.raises(ConfigError):\n"
        "    run_scenario(ScenarioConfig(num_channels=1, attacker='oracle'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_smart_defender_moves_under_fire():
    cfg = short_config(defender="smart", attacker="oracle", sim_duration_s=120.0)
    m = run_scenario(cfg)
    assert m.hops > 0
    assert m.delivered > 0


def test_run_batch_counts_and_seed_layout():
    cfg = short_config(runs=5, seed=100)
    batch = run_batch(cfg)
    assert len(batch.runs) == 5
    assert [run.seed for run in batch.runs] == [100, 101, 102, 103, 104]
    assert all(run.trace is None for run in batch.runs)


def usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_run_batch_equals_per_seed_runs_on_any_core_count(monkeypatch, cores):
    # Five seeds split unevenly over two or three shares.
    usable_cores(monkeypatch, cores)
    cfg = short_config(runs=5, seed=40, attacker="bandit", defender="smart", sim_duration_s=30.0)
    batch = run_batch(cfg, finish=lambda run: run)
    assert [run.seed for run in batch.runs] == [40, 41, 42, 43, 44]
    for got in batch.runs:
        want = run_scenario(cfg, seed=got.seed, collect_trace=True)
        assert got.as_row() == want.as_row()
        assert got.trace == want.trace


class Finished(NamedTuple):
    """What a test's ``finish`` keeps of a run: its seed, its trace length and who finished it."""

    seed: int
    trace_samples: int
    pid: int


@pytest.mark.parametrize("cores", [1, 2])
def test_run_batch_finishes_each_run_once_in_the_share_that_ran_it(monkeypatch, tmp_path, cores):
    usable_cores(monkeypatch, cores)

    def finish(run):
        # Appended from whichever process finishes the run, so a second call
        # for a seed, in either process, would show as a second line.
        with (tmp_path / f"{run.seed}.calls").open("a") as calls:
            calls.write(f"{os.getpid()}\n")
        return Finished(run.seed, len(run.trace), os.getpid())

    cfg = short_config(runs=5, seed=40, attacker="reactive", sim_duration_s=10.0)
    runs = run_batch(cfg, finish).runs
    assert [run.seed for run in runs] == [40, 41, 42, 43, 44]
    assert all(run.trace_samples == 10 for run in runs)  # one per simulated second
    for run in runs:
        assert (tmp_path / f"{run.seed}.calls").read_text() == f"{run.pid}\n"
    # Seed 40 + i is dealt to share i % cores; share 0 is the caller's.
    callers = {run.seed for run in runs if run.pid == os.getpid()}
    assert callers == set(range(40, 45, cores))
    assert len({run.pid for run in runs}) == cores


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
    assert [run.seed for run in run_batch(short_config(runs=1)).runs] == [7]


REAL_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
needs_two_cores = pytest.mark.skipif(len(REAL_CORES) < 2, reason="needs 2 usable cores")


class Placement(NamedTuple):
    """A stand-in run: the seed and the cores its share was allowed to run on."""

    seed: int
    cores: list[int]


def report_placement(config, seed=None, collect_trace=False):
    return Placement(seed, sorted(os.sched_getaffinity(0)))


@needs_two_cores
def test_each_share_runs_on_a_core_of_its_own_when_the_shares_fill_the_mask(monkeypatch):
    monkeypatch.setattr(engine, "run_scenario", report_placement)
    shares = len(REAL_CORES)
    runs = run_batch(short_config(runs=2 * shares, seed=40)).runs
    # Seed 40 + i is dealt to share i % shares, which runs on the share's core.
    assert runs == [Placement(40 + i, [REAL_CORES[i % shares]]) for i in range(2 * shares)]


@needs_two_cores
def test_a_mask_wider_than_the_shares_pins_no_share(monkeypatch):
    monkeypatch.setattr(engine, "run_scenario", report_placement)
    monkeypatch.setattr(engine, "_usable_cores", lambda: REAL_CORES + [REAL_CORES[-1] + 1])
    assert run_batch(short_config(runs=2, seed=40)).runs == [Placement(40, REAL_CORES), Placement(41, REAL_CORES)]


@needs_two_cores
@pytest.mark.parametrize("failing_seed", [None, 40, 41], ids=["batch", "caller-share-raises", "child-share-raises"])
def test_run_batch_restores_the_callers_affinity(monkeypatch, failing_seed):
    def run(config, seed=None, collect_trace=False):
        if seed == failing_seed:
            raise KeyError(f"seed {seed}")
        return report_placement(config, seed)

    monkeypatch.setattr(engine, "run_scenario", run)
    mask = os.sched_getaffinity(0)
    config = short_config(runs=2 * len(REAL_CORES), seed=40)
    if failing_seed is None:
        run_batch(config)
    else:
        with pytest.raises(KeyError, match=f"seed {failing_seed}"):
            run_batch(config)
    assert os.sched_getaffinity(0) == mask


@needs_two_cores
def test_a_refused_restore_raises_once_every_child_is_waited_for(monkeypatch):
    set_affinity = os.sched_setaffinity

    def refuse_restore(pid, mask):
        if len(mask) > 1:
            raise PermissionError("restore refused")
        set_affinity(pid, mask)

    monkeypatch.setattr(engine, "run_scenario", report_placement)
    monkeypatch.setattr(os, "sched_setaffinity", refuse_restore)
    with pytest.raises(PermissionError, match="restore refused"):
        run_batch(short_config(runs=2 * len(REAL_CORES), seed=40))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_aggregates_match_the_runs():
    cfg = short_config(runs=3, attacker="oracle", oracle_burst_slots=10, oracle_cooldown_slots=10)
    batch = run_batch(cfg)
    rows = [run.as_row() for run in batch.runs]

    def mean(key):
        return sum(row[key] for row in rows) / 3

    pdr = mean("final_pdr")
    # Each aggregate column and its value, worked out from the runs' rows.
    expected = {
        "mean_pdr": pdr,
        "mean_success_rate": mean("success_rate"),
        "mean_retransmissions": mean("retransmissions"),
        "mean_detections": mean("detections"),
        "mean_extra_energy_j": mean("extra_energy_j"),
        "std_pdr": (sum((row["final_pdr"] - pdr) ** 2 for row in rows) / 3) ** 0.5,
    }
    row = summary_row(batch)
    assert SUMMARY_HEADER[:3] == ["attacker", "defender", "runs"]
    assert row[:3] == ["oracle", "random", 3]
    assert SUMMARY_HEADER[3:] == list(expected)
    for column, value in zip(SUMMARY_HEADER[3:], row[3:]):
        assert float(value) == pytest.approx(expected[column]), column
    assert batch.mean("hops") == pytest.approx(mean("hops"))


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


def test_emit_timeseries_writes_the_bytes_of_csv_writer(tmp_path):
    # A lossy run whose jammer starts at 10 s and then scans: its trace has
    # silent (None) jam channels and all three outcomes.
    m = run_scenario(short_config(attacker="reactive", loss_prob=0.2, attack_start_s=10), collect_trace=True)
    assert {outcome for *_, outcome in m.trace} == {"delivered", "jammed", "lost"}
    assert any(jam is None for _, _, _, jam, _ in m.trace)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(TIMESERIES_HEADER)
    for t_s, pdr, tx, jam, outcome in m.trace:
        writer.writerow([repr(float(t_s)), repr(float(pdr)), tx, "" if jam is None else jam, outcome])
    path = emit_timeseries(m, tmp_path / "run_7.csv")
    assert path.read_bytes() == expected.getvalue().encode()


def test_emitted_files_are_byte_stable(tmp_path):
    cfg = short_config(runs=2, attacker="bandit")
    a = emit_summary(run_batch(cfg), tmp_path / "a.csv").read_bytes()
    b = emit_summary(run_batch(cfg), tmp_path / "b.csv").read_bytes()
    assert a == b


# --- the segment-stepped loop against the plain per-slot loop -----------------


class RetryQueue:
    """The one-packet send queue as an object, for the reference loop."""

    def __init__(self) -> None:
        self.pending = False

    def queue_retry(self) -> None:
        self.pending = True

    def pop_retransmission(self) -> bool:
        if self.pending:
            self.pending = False
            return True
        return False


def reference_run(config, seed):
    """One run stepped slot by slot, testing the phases and the trace cadence every slot.

    The plain loop that ``run_scenario``'s segment-stepped loop must equal,
    with the send queue as an object; returns (metrics, trace).
    """
    def_rng = component_rng(seed, 0)
    att_rng = component_rng(seed, 1)
    phy_rng = component_rng(seed, 2)
    defender = Defender(config, def_rng)
    attacker = make_attacker(config, att_rng)
    queue = RetryQueue()
    stride = max(1, int(round(1.0 / config.slot_s)))
    period_s = stride * config.slot_s
    transmitted = delivered = jammed = recovered = 0
    last_jam = None
    trace = []
    for slot in range(config.num_slots):
        if slot >= config.hop_enable_slot:
            defender.advance(avoid=last_jam)
        tx = defender.channel
        if slot >= config.attack_start_slot:
            emit = attacker.step(tx)
            sense = attacker.sensing_channel
        else:
            emit = None
            sense = None
        slot_delivered, slot_jammed = resolve_slot(tx, emit, config.loss_prob, phy_rng)
        defender.record_and_detect(slot_delivered)
        transmitted += 1
        if slot_delivered:
            delivered += 1
            if queue.pop_retransmission():
                recovered += 1
        else:
            if slot_jammed:
                jammed += 1
            queue.queue_retry()
        if sense is not None:
            attacker.observe(sense == tx)
        last_jam = emit
        if (slot + 1) % stride == 0:
            outcome = "jammed" if slot_jammed else "delivered" if slot_delivered else "lost"
            trace.append((((slot + 1) // stride) * period_s, defender.pdr, tx, emit, outcome))
    tx_s = transmitted * config.t_tx_data_s
    rx_s = delivered * config.t_rx_ack_s
    idle_s = transmitted * config.slot_s - tx_s - rx_s
    metrics = RunMetrics(
        seed=seed,
        transmitted=transmitted,
        delivered=delivered,
        jammed=jammed,
        recovered=recovered,
        detections=defender.detections,
        hops=defender.hops,
        extra_energy_j=(transmitted - delivered) * retx_energy(config),
        total_energy_j=tx_s * config.p_tx_w + rx_s * config.p_rx_w + idle_s * config.p_idle_w,
    )
    return metrics, trace


# Strides 10, 4, 2 and 1.
SLOT_LENGTHS = (0.1, 0.25, 0.5, 1.0)


@st.composite
def short_scenarios(draw):
    """Small valid configs: (slot_s, slots, hop start, attack start, loss, knobs).

    Phase starts are drawn in slots, from 0 through mid-period to past the
    end; runs can be shorter than one emission period; small windows and
    attacker knobs make detections, hops, scans and retrains happen.
    """
    slot_s = draw(st.sampled_from(SLOT_LENGTHS))
    slots = draw(st.integers(1, 300))
    phase = st.integers(0, slots + 15)
    return {
        "slot_s": slot_s,
        "sim_duration_s": slots * slot_s,
        "hop_enable_s": draw(phase) * slot_s,
        "attack_start_s": draw(phase) * slot_s,
        "loss_prob": draw(st.sampled_from((0.0, 0.0, 0.05, 0.3))),
        "num_channels": draw(st.integers(2, 6)),
        "detection_window_slots": draw(st.integers(1, 40)),
        "detection_threshold": draw(st.sampled_from((0.5, 0.8, 1.0))),
        "idle_trigger_slots": draw(st.integers(1, 8)),
        "reactive_dwell_slots": draw(st.integers(1, 4)),
        "listen_len_slots": draw(st.integers(1, 30)),
        "eval_len_slots": draw(st.integers(1, 30)),
        "retrain_trigger": draw(st.sampled_from((0.0, 0.3, 0.6))),
        "oracle_burst_slots": draw(st.integers(1, 10)),
        "oracle_cooldown_slots": draw(st.integers(0, 10)),
        "seed": draw(st.integers(0, 2**32)),
    }


@pytest.mark.parametrize("defender", list(DEFENDERS))
@pytest.mark.parametrize("attacker", list(ATTACKERS))
@given(scenario=short_scenarios())
# Shorter than one period, both phases from slot 0, lossy.
@example(
    scenario={"slot_s": 0.1, "sim_duration_s": 0.7, "hop_enable_s": 0.0, "attack_start_s": 0.0, "loss_prob": 0.3}
)
# Both phases start mid-period.
@example(
    scenario={"slot_s": 0.1, "sim_duration_s": 20.0, "hop_enable_s": 0.5, "attack_start_s": 1.3, "loss_prob": 0.05}
)
# Hopping starts past the end.
@example(
    scenario={"slot_s": 0.25, "sim_duration_s": 30.0, "hop_enable_s": 40.0, "attack_start_s": 0.0, "loss_prob": 0.0}
)
# The attack starts past the end.
@example(
    scenario={"slot_s": 0.5, "sim_duration_s": 30.0, "hop_enable_s": 0.0, "attack_start_s": 31.0, "loss_prob": 0.1}
)
def test_segment_stepped_loop_matches_the_per_slot_loop(attacker, defender, scenario):
    config = ScenarioConfig(attacker=attacker, defender=defender, **scenario)
    validate(config)
    want, want_trace = reference_run(config, config.seed)
    got = run_scenario(config, collect_trace=True)
    assert got.as_row() == want.as_row()
    assert got.trace == want_trace
    assert got.transmitted == config.num_slots
    assert all(0.0 <= pdr <= 1.0 for _, pdr, *_ in got.trace)
    assert run_scenario(config).as_row() == want.as_row()


@pytest.mark.parametrize("defender", list(DEFENDERS))
@pytest.mark.parametrize("attacker", list(ATTACKERS))
@given(scenario=short_scenarios())
# A lossy run at the reference slot length, long enough for lost retries to
# outnumber the jams a recovery could follow.
@example(scenario={"sim_duration_s": 120.0, "loss_prob": 0.1, "seed": 1})
def test_accounting_identities_hold_for_every_config(attacker, defender, scenario):
    config = ScenarioConfig(attacker=attacker, defender=defender, **scenario)
    m = run_scenario(config)
    assert m.delivered + m.jammed <= m.transmitted
    assert m.recovered <= m.retransmissions
    assert m.extra_energy_j == m.retransmissions * retx_energy(config)
    assert 0.0 <= m.final_pdr <= 1.0


@pytest.mark.parametrize("defender", list(DEFENDERS))
@pytest.mark.parametrize("attacker", list(ATTACKERS))
@given(scenario=short_scenarios())
def test_a_run_is_a_pure_function_of_its_config_and_seed(attacker, defender, scenario):
    config = ScenarioConfig(attacker=attacker, defender=defender, **scenario)
    first = run_scenario(config, collect_trace=True)
    again = run_scenario(config, collect_trace=True)
    assert first.as_row() == again.as_row()
    assert first.trace == again.trace


@pytest.mark.parametrize("defender", list(DEFENDERS))
@pytest.mark.parametrize("attacker", list(ATTACKERS))
@settings(max_examples=20)
@given(scenario=short_scenarios(), runs=st.integers(2, 4))
def test_run_batch_gives_the_same_runs_on_one_and_two_cores(attacker, defender, scenario, runs):
    config = ScenarioConfig(attacker=attacker, defender=defender, runs=runs, **scenario)
    batches = []
    for cores in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            usable_cores(patch, cores)
            batches.append(run_batch(config, finish=lambda run: run))
    one, two = batches
    assert [run.seed for run in one.runs] == [run.seed for run in two.runs]
    assert [run.as_row() for run in one.runs] == [run.as_row() for run in two.runs]
    assert [run.trace for run in one.runs] == [run.trace for run in two.runs]


def test_runs_do_not_depend_on_run_order():
    # A run is a pure function of (config, seed): playing the same runs again
    # in one process, in reverse and interleaved across pairings, so that each
    # run follows runs of other pairings and seeds, changes no byte.
    pairings = [short_config(attacker=attacker, defender=defender) for attacker in ATTACKERS for defender in DEFENDERS]
    seeds = (1, 2, 3)

    def play(pairing, seed):
        run = run_scenario(pairings[pairing], seed=seed, collect_trace=True)
        return run.as_row(), run.trace

    in_order = {(pairing, seed): play(pairing, seed) for pairing in range(len(pairings)) for seed in seeds}
    shuffled = {
        (pairing, seed): play(pairing, seed) for seed in reversed(seeds) for pairing in reversed(range(len(pairings)))
    }
    assert list(shuffled) != list(in_order)
    for key, (row, trace) in in_order.items():
        assert shuffled[key][0] == row, key
        assert shuffled[key][1] == trace, key


# --- fast-forwarded quiet stretches against the per-slot loop -----------------


class FastForward(NamedTuple):
    """What one run fast-forwarded: ``quiet`` calls and, per ``skip``, (slots recorded before it, slots skipped)."""

    quiet_calls: list
    skips: list


@pytest.fixture
def fast_forward(monkeypatch):
    """Record every ``quiet`` call of any jammer and every ``RandomDefender.skip``."""
    seen = FastForward([], [])
    for cls in {Jammer, type(engine._SILENT), *ATTACKERS.values()}:
        if "quiet" in vars(cls):

            def quiet(self, victim_channel, limit, _quiet=vars(cls)["quiet"]):
                seen.quiet_calls.append(type(self).__name__)
                return _quiet(self, victim_channel, limit)

            monkeypatch.setattr(cls, "quiet", quiet)
    skip = RandomDefender.skip

    def counted_skip(self, slots):
        seen.skips.append((self._now, slots))
        skip(self, slots)

    monkeypatch.setattr(RandomDefender, "skip", counted_skip)
    return seen


# Lossless runs against the random hopper, each with a phase start inside a
# quiet stretch; at 0.1 s slots every tenth slot ends a trace period, inside
# stretches too. Detections come after five failures in 20 slots.
QUIET_RUNS = {
    # Cooldown over slots 5-54: the burst's fifth jam asks for a hop at slot
    # 4, while hopping is held until slot 30.
    "oracle": dict(
        attacker="oracle", attack_start_s=0.0, hop_enable_s=3.0, oracle_burst_slots=5, oracle_cooldown_slots=50
    ),
    # Hopping starts at slot 5, inside the stand-in's quiet stretch, and the
    # attack at slot 23 opens with a listening phase, so it splits one.
    "phased": dict(attacker="phased", attack_start_s=2.3, hop_enable_s=0.5, listen_len_slots=40, eval_len_slots=30),
    # Hopping starts at slot 5, inside the stand-in's quiet stretch; every
    # hop away sends the jammer on a silent scan.
    "reactive": dict(
        attacker="reactive", attack_start_s=1.5, hop_enable_s=0.5, idle_trigger_slots=5, reactive_dwell_slots=3
    ),
}


def quiet_run_config(name, **changes):
    base = dict(sim_duration_s=60.0, num_channels=6, detection_window_slots=20, seed=11)
    return ScenarioConfig(**{**base, **QUIET_RUNS[name], **changes})


@pytest.mark.parametrize("collect_trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(QUIET_RUNS))
def test_fast_forwarded_runs_equal_the_per_slot_loop(fast_forward, name, collect_trace):
    config = quiet_run_config(name)
    want, want_trace = reference_run(config, config.seed)
    got = run_scenario(config, collect_trace=collect_trace)
    assert got.as_row() == want.as_row()
    assert got.trace == (want_trace if collect_trace else None)
    assert got.hops > 0
    assert sum(slots for _, slots in fast_forward.skips) >= config.num_slots // 4
    # Stretches stop at the phase starts and, only when traced, at the end
    # of the first trace period, slot 10, which falls inside one in all three.
    ends = {before + slots for before, slots in fast_forward.skips}
    assert {config.hop_enable_slot, config.attack_start_slot} - {0} <= ends
    assert (10 in ends) == collect_trace


@pytest.mark.parametrize("changes", [dict(defender="smart"), dict(loss_prob=0.05)], ids=["smart-defender", "lossy"])
@pytest.mark.parametrize("name", list(QUIET_RUNS))
def test_smart_and_lossy_runs_play_every_slot(fast_forward, name, changes):
    config = quiet_run_config(name, **changes)
    for collect_trace in (False, True):
        want, want_trace = reference_run(config, config.seed)
        got = run_scenario(config, collect_trace=collect_trace)
        assert got.as_row() == want.as_row()
        assert got.trace == (want_trace if collect_trace else None)
    assert fast_forward == FastForward([], [])


def test_every_name_the_benchmark_tracer_wraps_is_called(monkeypatch, tmp_path):
    # The benchmark's tracer swaps these module globals and instance methods
    # for timing wrappers. A name the package renamed, or bound before the
    # swap, would record no calls, and its layer would read as absent.
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_methods(obj, prefix, methods):
        for method in methods:
            setattr(obj, method, counted(f"{prefix}.{method}", getattr(obj, method)))

    built = {}
    make, build_defender = engine.make_attacker, engine.Defender

    def make_attacker(config, rng):
        attacker = built[config.attacker] = make(config, rng)
        wrap_methods(attacker, f"attacker.{config.attacker}", ("step", "observe"))
        sampler = getattr(attacker, "sampler", None)
        if sampler is not None:
            wrap_methods(sampler, "bandit", ("select_arm", "update"))
        return attacker

    def defender(config, rng):
        made = build_defender(config, rng)
        wrap_methods(made, f"defender.{config.defender}", ("advance", "record_and_detect"))
        return made

    monkeypatch.setattr(engine, "resolve_slot", counted("phy.resolve_slot", engine.resolve_slot))
    monkeypatch.setattr(engine, "make_attacker", counted("engine.make_attacker", make_attacker))
    monkeypatch.setattr(engine, "Defender", counted("engine.Defender", defender))
    for name in ("load_config", "run_batch", "emit_summary", "emit_timeseries"):
        monkeypatch.setattr(cli, name, counted(f"cli.{name}", getattr(cli, name)))

    for attacker in ATTACKERS:
        for policy in DEFENDERS:
            run_scenario(short_config(attacker=attacker, defender=policy))
    config_path = tmp_path / "scenario.cfg"
    config_path.write_text("sim_duration_s = 30\nattacker = reactive\nruns = 1\n")
    assert cli.main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "out"), "--timeseries"]) == 0

    pairings = len(ATTACKERS) * len(DEFENDERS) + 1
    assert calls["engine.make_attacker"] == calls["engine.Defender"] == pairings
    expected = {"phy.resolve_slot", "engine.make_attacker", "engine.Defender", "bandit.select_arm", "bandit.update"}
    expected |= {f"cli.{name}" for name in ("load_config", "run_batch", "emit_summary", "emit_timeseries")}
    expected |= {f"defender.{policy}.{m}" for policy in DEFENDERS for m in ("advance", "record_and_detect")}
    expected |= {f"attacker.{attacker}.step" for attacker in ATTACKERS}
    # Only jammers that sense get observe calls: the engine skips a slot's
    # observe while sensing_channel is None.
    expected |= {f"attacker.{attacker}.observe" for attacker in ("reactive", "bandit", "phased")}
    assert set(calls) == expected
    assert isinstance(built["phased"].retrains, int)
