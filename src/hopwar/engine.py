"""Deterministic slot-stepped simulation core.

Slot order, fixed: the defender commits its channel (pending random hop or
one step of the adaptive policy), the attacker commits its action, the slot
resolves, the defender records the outcome (detector, delivery
bookkeeping), and the attacker gets its sensing feedback. Detections
therefore take effect at the start of the next slot, and the attacker's
knowledge always trails the slot it acted in.

All randomness flows from the run seed through fixed per-component streams
(defender 0, attacker 1, phy 2), so a run is a pure function of its config
and seed: same inputs, byte-identical outputs.

That is what lets ``run_batch`` split a batch's seeds between the caller and
one forked child per extra usable core: the runs come back in seed order,
the same bytes whatever the core count.
"""

from __future__ import annotations

import csv
import os
import pickle
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attacker import make_attacker
from .config import ScenarioConfig
from .defender import Defender
from .metrics import EnergyLedger, RunMetrics, retx_energy, total_energy
from .phy import resolve_slot

_DEFENDER_STREAM = 0
_ATTACKER_STREAM = 1
_PHY_STREAM = 2


def component_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one component of one run, derived from the run seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def run_scenario(config: ScenarioConfig, seed: int | None = None, collect_trace: bool = False) -> RunMetrics:
    """Simulate one run and return its metrics.

    ``seed`` defaults to ``config.seed``. With ``collect_trace`` the run also
    keeps one (t_s, pdr, tx_channel, jam_channel, outcome) sample per
    emission period for the timeseries CSV.
    """
    if seed is None:
        seed = config.seed
    def_rng = component_rng(seed, _DEFENDER_STREAM)
    att_rng = component_rng(seed, _ATTACKER_STREAM)
    phy_rng = component_rng(seed, _PHY_STREAM)

    defender = Defender(config)
    attacker = make_attacker(config, att_rng)
    loss_prob = config.loss_prob

    num_slots = config.num_slots
    attack_start = config.attack_start_slot
    hop_enable = config.hop_enable_slot
    slot_s = config.slot_s
    stride = max(1, int(round(1.0 / slot_s)))
    period_s = stride * slot_s

    transmitted = 0
    delivered = 0
    jammed = 0
    recovered = 0
    detections = 0
    last_jam: int | None = None
    pdr_series: list[tuple[float, float]] = []
    trace: list[tuple] | None = [] if collect_trace else None

    step = attacker.step
    observe = attacker.observe
    record = defender.record_and_detect
    pop_retry = defender.pop_retransmission
    queue_retry = defender.queue_retry

    for slot in range(num_slots):
        if slot >= hop_enable:
            defender.advance(def_rng, avoid=last_jam)
        tx = defender.channel
        if slot >= attack_start:
            emit = step(tx)
            sense = attacker.sensing_channel
        else:
            emit = None
            sense = None
        slot_delivered, slot_jammed = resolve_slot(tx, emit, loss_prob, phy_rng)
        fired = record(slot_delivered)
        transmitted += 1
        if slot_delivered:
            delivered += 1
            if pop_retry():
                recovered += 1
        else:
            if slot_jammed:
                jammed += 1
            queue_retry()
        if fired:
            detections += 1
        if sense is not None:
            observe(sense == tx)
        last_jam = emit
        if (slot + 1) % stride == 0:
            t_s = ((slot + 1) // stride) * period_s
            pdr_now = defender.pdr
            pdr_series.append((t_s, pdr_now))
            if trace is not None:
                if slot_jammed:
                    outcome = "jammed"
                elif slot_delivered:
                    outcome = "delivered"
                else:
                    outcome = "lost"
                trace.append((t_s, pdr_now, tx, emit, outcome))

    power = config.power_profile()
    timing = config.timing_profile()
    ledger = EnergyLedger(
        tx_s=transmitted * timing.t_tx_data_s,
        rx_s=delivered * timing.t_rx_ack_s,
    )
    ledger.idle_s = transmitted * slot_s - ledger.tx_s - ledger.rx_s

    metrics = RunMetrics(
        seed=seed,
        transmitted=transmitted,
        delivered=delivered,
        jammed=jammed,
        recovered=recovered,
        detections=detections,
        hops=defender.hops,
        extra_energy_j=jammed * retx_energy(power, timing),
        total_energy_j=total_energy(ledger, power),
        pdr_series=pdr_series,
    )
    metrics.trace = trace
    return metrics


@dataclass
class BatchResult:
    """A batch of runs of one (attacker, defender) pairing."""

    config: ScenarioConfig
    runs: list[RunMetrics]

    @property
    def seeds(self) -> list[int]:
        return [r.seed for r in self.runs]

    @property
    def mean_pdr(self) -> float:
        return statistics.fmean(r.final_pdr for r in self.runs)

    @property
    def std_pdr(self) -> float:
        return statistics.pstdev(r.final_pdr for r in self.runs)

    @property
    def mean_success_rate(self) -> float:
        return statistics.fmean(r.success_rate for r in self.runs)

    @property
    def mean_retransmissions(self) -> float:
        return statistics.fmean(r.retransmissions for r in self.runs)

    @property
    def mean_detections(self) -> float:
        return statistics.fmean(r.detections for r in self.runs)

    @property
    def mean_extra_energy_j(self) -> float:
        return statistics.fmean(r.extra_energy_j for r in self.runs)


def run_batch(config: ScenarioConfig, collect_trace: bool = False) -> BatchResult:
    """Run ``config.runs`` seeds (config.seed, config.seed+1, ...), in seed order.

    The seeds are dealt round-robin over ``min(runs, usable cores)`` shares.
    The caller runs share 0; each other share runs in a forked child that
    pipes its pickled runs back and exits. Every child has been read and
    waited for when this returns or raises, and an exception raised in a
    child is raised again here.
    """
    seeds = [config.seed + i for i in range(config.runs)]
    shares = min(len(seeds), _usable_cores())

    def run_share(share: int) -> list[RunMetrics]:
        return [run_scenario(config, seed=seed, collect_trace=collect_trace) for seed in seeds[share::shares]]

    if shares < 2:
        return BatchResult(config=config, runs=run_share(0))
    children: list[tuple[int, int]] = []
    payloads: list[bytes] = []
    exit_codes: list[int] = []
    try:
        for share in range(1, shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child_main(write_fd, lambda: run_share(share))
            children.append((pid, read_fd))
            os.close(write_fd)
        runs = run_share(0)
    finally:
        for _, read_fd in children:
            with open(read_fd, "rb") as pipe:
                payloads.append(pipe.read())
        for pid, _ in children:
            exit_codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), payload, code in zip(children, payloads, exit_codes):
        if code != 0:
            raise RuntimeError(f"run_batch: the child running a seed share (pid {pid}) exited with {code}")
        ok, value = pickle.loads(payload)
        if not ok:
            exc, child_traceback = value
            raise exc from RuntimeError(f"in the child running a seed share (pid {pid}):\n{child_traceback}")
        runs += value
    return BatchResult(config=config, runs=sorted(runs, key=lambda run: run.seed))


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _child_main(write_fd: int, work) -> None:
    """Body of a forked child: pipe ``work()``'s result or exception, then exit.

    It exits 0 once the pipe holds a whole payload. ``os._exit`` skips the
    interpreter's shutdown, so nothing the parent buffered or registered
    runs twice.
    """
    status = 1
    try:
        try:
            payload = pickle.dumps((True, work()), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # every failure goes back to the parent
            detail = traceback.format_exc()
            try:
                payload = pickle.dumps((False, (exc, detail)), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an exception that does not pickle
                payload = pickle.dumps((False, (RuntimeError(repr(exc)), detail)), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


SUMMARY_HEADER = [
    "attacker",
    "defender",
    "runs",
    "mean_pdr",
    "mean_success_rate",
    "mean_retransmissions",
    "mean_detections",
    "mean_extra_energy_j",
    "std_pdr",
]

TIMESERIES_HEADER = ["t_s", "pdr", "tx_channel", "jam_channel", "outcome"]


def emit_summary(batch: BatchResult, path: str | Path) -> Path:
    """Write the batch aggregate row. Same batch, same bytes."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_HEADER)
        writer.writerow(
            [
                batch.config.attacker,
                batch.config.defender,
                len(batch.runs),
                repr(batch.mean_pdr),
                repr(batch.mean_success_rate),
                repr(batch.mean_retransmissions),
                repr(batch.mean_detections),
                repr(batch.mean_extra_energy_j),
                repr(batch.std_pdr),
            ]
        )
    return path


def emit_timeseries(run: RunMetrics, path: str | Path) -> Path:
    """Write one run's per-second trace (requires collect_trace)."""
    if run.trace is None:
        raise ValueError("run was simulated without collect_trace=True")
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TIMESERIES_HEADER)
        for t_s, pdr, tx, jam, outcome in run.trace:
            writer.writerow(
                [repr(float(t_s)), repr(float(pdr)), tx, "" if jam is None else jam, outcome]
            )
    return path
