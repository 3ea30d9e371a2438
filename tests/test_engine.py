import os
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopwar import cli, engine
from hopwar.attacker import ATTACKERS, make_attacker
from hopwar.config import ScenarioConfig, validate
from hopwar.defender import DEFENDERS, Defender
from hopwar.engine import (
    SUMMARY_HEADER,
    TIMESERIES_HEADER,
    component_rng,
    emit_summary,
    emit_timeseries,
    run_batch,
    run_scenario,
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
    defender = Defender(config)
    attacker = make_attacker(config, att_rng)
    queue = RetryQueue()
    stride = max(1, int(round(1.0 / config.slot_s)))
    period_s = stride * config.slot_s
    transmitted = delivered = jammed = recovered = 0
    last_jam = None
    trace = []
    for slot in range(config.num_slots):
        if slot >= config.hop_enable_slot:
            defender.advance(def_rng, avoid=last_jam)
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
    validate(config)
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
    validate(config)
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
    validate(config)
    batches = []
    for cores in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            usable_cores(patch, cores)
            batches.append(run_batch(config, collect_trace=True))
    one, two = batches
    assert one.seeds == two.seeds
    assert [run.as_row() for run in one.runs] == [run.as_row() for run in two.runs]
    assert [run.trace for run in one.runs] == [run.trace for run in two.runs]


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

    def defender(config):
        made = build_defender(config)
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
