"""Deterministic slot-stepped simulation core.

Slot order, fixed: the defender commits its channel (pending random hop or
one step of the adaptive policy), the attacker commits its action, the slot
resolves, the defender feeds the outcome to its detector, the engine does
the delivery bookkeeping (the one-packet send queue included), and the
attacker gets its sensing feedback. Detections therefore take effect at the
start of the next slot, and the attacker's knowledge always trails the slot
it acted in. A run keeps counters, not per-slot series.

Slots are played one by one, except a quiet stretch against the random
hopper in a lossless run: after a slot the attacker was silent in, the
jammer's ``quiet`` plays the slots it stays silent for in closed form and
the defender's ``skip`` ticks its clock over them, so they cost O(1)
together. Without random loss a silent slot is sure to deliver and draws
nothing, a delivery leaves the random hopper on its channel with only its
clock moved, and ``quiet`` leaves the jammer as the slots would, so no
output changes. The smart defender changes state every slot and a lossy
slot draws the phy's generator, so those runs play every slot. Only the
slots played one by one call ``step``, ``observe``, ``advance`` and
``record_and_detect``.

All randomness flows from the run seed through fixed per-component streams
(defender 0, attacker 1, phy 2), so a run is a pure function of its config
and seed: same inputs, byte-identical outputs.

That is what lets ``run_batch`` split a batch's seeds between the caller and
one forked child per extra usable core, each share on a core of its own: the
runs come back in seed order, the same bytes whatever the core count.
"""

from __future__ import annotations

import heapq
import os
import pickle
import statistics
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attacker import ATTACKERS, Jammer
from .config import ScenarioConfig, validate
from .defender import DEFENDERS, BaseDefender
from .metrics import RunMetrics, retx_energy, total_energy
from .phy import resolve_slot

_DEFENDER_STREAM = 0
_ATTACKER_STREAM = 1
_PHY_STREAM = 2


def component_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one component of one run, derived from the run seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


# The two construction hooks, side by side: the engine builds each run's
# strategies through these module globals, so a wrapper swapped in for either
# (the benchmark's tracer does that) sees every object a run builds.
def Defender(config: ScenarioConfig, rng: np.random.Generator) -> BaseDefender:
    """Build the defender ``config.defender`` names, drawing from ``rng``."""
    return DEFENDERS[config.defender](config, rng)


def make_attacker(config: ScenarioConfig, rng: np.random.Generator) -> Jammer:
    """Build the attacker ``config.attacker`` names, drawing from ``rng``."""
    return ATTACKERS[config.attacker](config, rng)


def run_scenario(config: ScenarioConfig, seed: int | None = None, collect_trace: bool = False) -> RunMetrics:
    """Simulate one run of a config ``validate`` accepts and return its metrics.

    The config is validated first, so a bad one raises ``ConfigError``.
    ``seed`` defaults to ``config.seed``; one given here is held to the rule
    ``validate`` applies to that field, so a bad one raises ``ConfigError``
    too, as does a bad ``config.seed`` whatever the argument. With
    ``collect_trace`` the run also keeps one (t_s, pdr, tx_channel,
    jam_channel, outcome) sample per emission period for the timeseries CSV.

    The slots run in segments cut at ``hop_enable_slot``, at
    ``attack_start_slot`` and, with ``collect_trace``, at the end of every
    emission period. A segment before hopping starts holds the defender on
    its channel, one before the attack starts puts a silent stand-in in the
    attacker's place, and the trace sample is taken between segments, so the
    per-slot loop tests no slot number. Each slot hands the defender the
    previous slot's emission and the attacker the slot's transmit channel.

    When a slot ends with the attacker silent, ``loss_prob`` is 0 and the
    defender has ``skip`` (the random hopper), the rest of the attacker's
    quiet stretch within the segment is fast-forwarded: ``quiet`` plays it
    in the jammer, and its slots are added to ``delivered`` and to the
    defender's clock at once. A stretch never crosses a segment cut, so
    phase starts and trace samples see the slots they would see otherwise.
    """
    validate(config)
    if seed is None:
        seed = config.seed
    else:
        validate(replace(config, seed=seed))
    def_rng = component_rng(seed, _DEFENDER_STREAM)
    att_rng = component_rng(seed, _ATTACKER_STREAM)
    phy_rng = component_rng(seed, _PHY_STREAM)

    defender = Defender(config, def_rng)
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

    def hold(avoid):
        return defender.channel

    delivered = 0
    jammed = 0
    recovered = 0
    # The send queue holds one packet: the head packet, back on it after a
    # failed slot, and recovered by the next delivery.
    retry = False
    # The previous slot's emission; none before the first slot.
    emit: int | None = None

    resolve = resolve_slot
    record = defender.record_and_detect
    observe = attacker.observe
    # Quiet stretches are fast-forwarded only where a silent slot is sure to
    # deliver and to leave the defender as it was but for its clock.
    skip = getattr(defender, "skip", None) if loss_prob == 0.0 else None

    # Slots played so far.
    slot = 0
    for stop in stops:
        if stop <= slot:
            continue
        advance = defender.advance if slot >= hop_enable else hold
        agent = attacker if slot >= attack_start else _SILENT
        step = agent.step
        quiet = agent.quiet
        while slot < stop:
            for slot in range(slot + 1, stop + 1):
                tx = advance(emit)
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
                if emit is None and skip is not None:
                    # A delivered silent slot: the victim stays on tx and the
                    # send queue stays empty for as long as the attacker is quiet.
                    run = quiet(tx, stop - slot)
                    if run:
                        delivered += run
                        skip(run)
                        slot += run
                        break
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


class _Silent(Jammer):
    """The attacker's stand-in before the attack starts: no emission, no sensing, quiet throughout."""

    def quiet(self, victim_channel: int, limit: int) -> int:
        return limit


_SILENT = _Silent()


# Each mean column of summary.csv and the RunMetrics value it averages over a
# batch's runs. The pdr's population standard deviation, std_pdr, follows them.
SUMMARY_MEANS = {
    "mean_pdr": "final_pdr",
    "mean_success_rate": "success_rate",
    "mean_retransmissions": "retransmissions",
    "mean_detections": "detections",
    "mean_extra_energy_j": "extra_energy_j",
}

SUMMARY_HEADER = ["attacker", "defender", "runs", *SUMMARY_MEANS, "std_pdr"]


@dataclass
class BatchResult:
    """A batch of runs of one (attacker, defender) pairing.

    Its aggregates are computed on demand from ``runs``: ``mean`` for any
    ``RunMetrics`` value, ``summary`` for the aggregate columns of
    ``summary.csv``.
    """

    config: ScenarioConfig
    runs: list[RunMetrics]

    def mean(self, field: str) -> float:
        """The mean over the runs of the ``RunMetrics`` value ``field`` names, e.g. ``"final_pdr"``."""
        return statistics.fmean(getattr(run, field) for run in self.runs)

    def summary(self) -> dict[str, float]:
        """The aggregate columns of ``SUMMARY_HEADER`` by name, in order: the means, then ``std_pdr``."""
        summary = {column: self.mean(field) for column, field in SUMMARY_MEANS.items()}
        summary["std_pdr"] = statistics.pstdev(run.final_pdr for run in self.runs)
        return summary


def run_batch(config: ScenarioConfig, finish=None) -> BatchResult:
    """Run ``config.runs`` seeds (config.seed, config.seed+1, ...), in seed order.

    The seeds are dealt round-robin over ``min(runs, usable cores)`` shares.
    The caller runs share 0; each other share runs in a forked child that
    pipes its pickled runs back and exits. Every child has been read and
    waited for when this returns or raises, and an exception raised in a
    child is raised again here.

    With ``finish``, each run is simulated with ``collect_trace`` and handed
    to ``finish(run)`` as soon as it ends, in the process that simulated it;
    the batch keeps what ``finish`` returns, so a ``finish`` that writes the
    trace and drops it holds a batch's memory flat in ``runs``. Without it
    the runs are kept untraced.

    When the shares fill the caller's affinity mask, each share runs pinned
    to one core of it, in order: the caller on the first, each child on the
    next, so the shares run side by side rather than wherever the scheduler
    leaves a child. Pinning is best effort: a core the kernel refuses leaves
    that share unpinned. The caller's mask is set back to the mask read at
    the start once every child has been waited for; a failure to set it back
    raises. A mask wider than the shares pins nothing, so batches that run
    at once can spread over it.
    """
    seeds = [config.seed + i for i in range(config.runs)]
    cores = _usable_cores()
    shares = max(1, min(len(seeds), len(cores)))
    pin = shares == len(cores)

    def run_share(share: int) -> list:
        if finish is None:
            return [run_scenario(config, seed=seed) for seed in seeds[share::shares]]
        return [finish(run_scenario(config, seed=seed, collect_trace=True)) for seed in seeds[share::shares]]

    if shares < 2:
        return BatchResult(config=config, runs=run_share(0))
    # Share i holds seeds i, i + shares, ...: its runs go back to those places.
    runs: list = [None] * len(seeds)
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
                if pin:
                    _pin(cores[share])
                _child_main(write_fd, lambda: run_share(share))
            children.append((pid, read_fd))
            os.close(write_fd)
        # Pinned after the forks, so a child whose core is refused keeps the
        # caller's whole mask.
        if pin:
            _pin(cores[0])
        runs[0::shares] = run_share(0)
    finally:
        for _, read_fd in children:
            with open(read_fd, "rb") as pipe:
                payloads.append(pipe.read())
        for pid, _ in children:
            exit_codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        if pin:
            os.sched_setaffinity(0, cores)
    for share, ((pid, _), payload, code) in enumerate(zip(children, payloads, exit_codes), 1):
        if code != 0:
            raise RuntimeError(f"run_batch: the child running a seed share (pid {pid}) exited with {code}")
        ok, value = pickle.loads(payload)
        if not ok:
            exc, child_traceback = value
            raise exc from RuntimeError(f"in the child running a seed share (pid {pid}):\n{child_traceback}")
        runs[share::shares] = value
    return BatchResult(config=config, runs=runs)


def _usable_cores() -> list[int]:
    """The cores this process may run on, in order; none where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _pin(core: int) -> None:
    """Run this process on ``core`` only, if the kernel allows it; else leave it as it is."""
    try:
        os.sched_setaffinity(0, [core])
    except OSError:
        pass


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


TIMESERIES_HEADER = ["t_s", "pdr", "tx_channel", "jam_channel", "outcome"]


def summary_row(batch: BatchResult) -> list:
    """The batch's row under ``SUMMARY_HEADER``: the pairing, the run count, then ``summary()``'s values as ``repr``."""
    return [batch.config.attacker, batch.config.defender, len(batch.runs)] + [
        repr(value) for value in batch.summary().values()
    ]


def emit_summary(batch: BatchResult, path: str | Path) -> Path:
    """Write the batch aggregate row. Same batch, same bytes."""
    return _write_csv(path, [",".join(SUMMARY_HEADER), ",".join(map(str, summary_row(batch)))])


def emit_timeseries(run: RunMetrics, path: str | Path) -> Path:
    """Write one run's trace (requires collect_trace).

    A row per emission period of ``round(1 / slot_s)`` slots, one per
    simulated second at the default ``slot_s``. ``t_s`` is the period count
    times the period's float length, so at ``slot_s = 0.3`` it reads
    0.8999999999999999, 1.7999999999999998, ...
    """
    if run.trace is None:
        raise ValueError("run was simulated without collect_trace=True")
    lines = [",".join(TIMESERIES_HEADER)]
    lines += [
        f"{float(t_s)!r},{float(pdr)!r},{tx},{'' if jam is None else jam},{outcome}"
        for t_s, pdr, tx, jam, outcome in run.trace
    ]
    return _write_csv(path, lines)


def _write_csv(path: str | Path, lines: list[str]) -> Path:
    """Write comma-joined ``lines`` as CSV records, built as one string and written in one call.

    The bytes are those of ``csv.writer``'s default dialect: CRLF line ends,
    and no field hopwar writes needs quoting.
    """
    path = Path(path)
    lines.append("")
    with path.open("w", newline="") as handle:
        handle.write("\r\n".join(lines))
    return path
