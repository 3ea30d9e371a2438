"""Deterministic slot-stepped simulation core.

Slot order, fixed: the defender commits its channel (pending random hop or
one step of the adaptive policy), the attacker commits its action, the slot
resolves, the defender feeds the outcome to its detector, the engine does
the delivery bookkeeping (the one-packet send queue included), and the
attacker gets its sensing feedback. Detections therefore take effect at the
start of the next slot, and the attacker's knowledge always trails the slot
it acted in. A run keeps counters, not per-slot series.

All randomness flows from the run seed through fixed per-component streams
(defender 0, attacker 1, phy 2), so a run is a pure function of its config
and seed: same inputs, byte-identical outputs.

That is what lets ``run_batch`` split a batch's seeds between the caller and
one forked child per extra usable core: the runs come back in seed order,
the same bytes whatever the core count.
"""

from __future__ import annotations

import csv
import heapq
import os
import pickle
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attacker import Jammer, make_attacker
from .config import ScenarioConfig
from .defender import Defender
from .metrics import RunMetrics, retx_energy, total_energy
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

    The slots run in segments cut at ``hop_enable_slot``, at
    ``attack_start_slot`` and, with ``collect_trace``, at the end of every
    emission period. A segment before hopping starts holds the defender on
    its channel, one before the attack starts puts a silent stand-in in the
    attacker's place, and the trace sample is taken between segments, so the
    per-slot loop tests no slot number.
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

    # Segment ends in ascending order; repeats and ends at slot 0 are skipped.
    stops = sorted(min(cut, num_slots) for cut in (hop_enable, attack_start, num_slots))
    trace: list[tuple] | None = None
    if collect_trace:
        trace = []
        stops = heapq.merge(range(stride, num_slots, stride), stops)

    def hold(rng, avoid):
        return defender.channel

    delivered = 0
    jammed = 0
    recovered = 0
    # The send queue holds one packet: the head packet, back on it after a
    # failed slot, and recovered by the next delivery.
    retry = False
    last_jam: int | None = None

    resolve = resolve_slot
    record = defender.record_and_detect
    observe = attacker.observe

    slot = 0
    for stop in stops:
        if stop <= slot:
            continue
        advance = defender.advance if slot >= hop_enable else hold
        agent = attacker if slot >= attack_start else _SILENT
        step = agent.step
        for _ in range(slot, stop):
            tx = advance(def_rng, last_jam)
            emit = step(tx)
            sense = agent.sensing_channel
            slot_delivered, slot_jammed = resolve(tx, emit, loss_prob, phy_rng)
            record(slot_delivered)
            if slot_delivered:
                delivered += 1
                if retry:
                    retry = False
                    recovered += 1
            else:
                retry = True
                if slot_jammed:
                    jammed += 1
            if sense is not None:
                observe(sense == tx)
            last_jam = emit
        slot = stop
        if trace is not None and stop % stride == 0:
            if slot_jammed:
                outcome = "jammed"
            elif slot_delivered:
                outcome = "delivered"
            else:
                outcome = "lost"
            trace.append(((stop // stride) * period_s, defender.pdr, tx, emit, outcome))

    return RunMetrics(
        seed=seed,
        transmitted=num_slots,
        delivered=delivered,
        jammed=jammed,
        recovered=recovered,
        detections=defender.detections,
        hops=defender.hops,
        extra_energy_j=(num_slots - delivered) * retx_energy(config),
        total_energy_j=total_energy(config, delivered),
        trace=trace,
    )


# The attacker's stand-in before the attack starts: no emission, no sensing.
_SILENT = Jammer()


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
    # numpy loads numpy.random on first use; load it here, once, rather than
    # once in the caller and again in every child after the fork.
    import numpy.random  # noqa: F401

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


def summary_row(batch: BatchResult) -> list:
    """The batch aggregate row under ``SUMMARY_HEADER``, floats as ``repr``.

    Each float column is named after the ``BatchResult`` property it reads.
    """
    return [batch.config.attacker, batch.config.defender, len(batch.runs)] + [
        repr(getattr(batch, name)) for name in SUMMARY_HEADER[3:]
    ]


def emit_summary(batch: BatchResult, path: str | Path) -> Path:
    """Write the batch aggregate row. Same batch, same bytes."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_HEADER)
        writer.writerow(summary_row(batch))
    return path


def emit_timeseries(run: RunMetrics, path: str | Path) -> Path:
    """Write one run's per-second trace (requires collect_trace).

    The bytes are those of ``csv.writer``'s default dialect (CRLF line ends;
    no field needs quoting), built as one string and written in one call.
    """
    if run.trace is None:
        raise ValueError("run was simulated without collect_trace=True")
    path = Path(path)
    lines = [",".join(TIMESERIES_HEADER)]
    lines += [
        f"{float(t_s)!r},{float(pdr)!r},{tx},{'' if jam is None else jam},{outcome}"
        for t_s, pdr, tx, jam, outcome in run.trace
    ]
    lines.append("")
    with path.open("w", newline="") as handle:
        handle.write("\r\n".join(lines))
    return path
