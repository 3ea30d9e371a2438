"""Correctness checks for benchmark outputs.

Every expected value here is computed from the scenario's config values
alone: the slot count, the oracle's burst/cooldown jam count, the unit
retransmission energy and the summary means are derived independently of
hopwar's own helpers, so a fault in those helpers cannot vouch for itself.
Each check returns a list of problems; an empty list means the output holds.

This module imports nothing from hopwar and nothing outside the standard
library, so its tests run without the simulator.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

SUMMARY_MEANS = (
    ("mean_pdr", "final_pdr"),
    ("mean_success_rate", "success_rate"),
    ("mean_retransmissions", "retransmissions"),
    ("mean_detections", "detections"),
    ("mean_extra_energy_j", "extra_energy_j"),
)
TIMESERIES_HEADER = ["t_s", "pdr", "tx_channel", "jam_channel", "outcome"]
OUTCOMES = {"delivered", "jammed", "lost"}
# Half-width of the random jammer's acceptance band, in binomial standard
# deviations. Wide enough that a correct run falls outside about once in
# 10^11 runs; a jammer that is not uniform over the channels still lands far
# outside it.
RANDOM_JAM_SIGMAS = 7.0


def num_slots(cfg: dict) -> int:
    return int(round(cfg["sim_duration_s"] / cfg["slot_s"]))


def attack_slots(cfg: dict) -> int:
    """Slots in which the attacker acts: from attack start to the end."""
    start = int(round(cfg["attack_start_s"] / cfg["slot_s"]))
    return max(0, num_slots(cfg) - start)


def unit_retx_energy(cfg: dict) -> float:
    """Joules of one retransmission: data out, data in, ack out, ack in."""
    tx_time = cfg["t_tx_data_s"] + cfg["t_tx_ack_s"]
    rx_time = cfg["t_rx_data_s"] + cfg["t_rx_ack_s"]
    return tx_time * cfg["p_tx_w"] + rx_time * cfg["p_rx_w"]


def oracle_jams(cfg: dict) -> int:
    """Jams of the duty-cycled oracle: bursts of B jams, then C silent slots.

    Every oracle emission lands on the victim's channel, so with a lossless
    link each emission is one jammed packet.
    """
    burst = cfg["oracle_burst_slots"]
    cycle = burst + cfg["oracle_cooldown_slots"]
    full, rest = divmod(attack_slots(cfg), cycle)
    return full * burst + min(rest, burst)


def random_jam_band(cfg: dict) -> tuple[float, float]:
    """Acceptance band for the uniform jammer's jam count.

    Each attack slot the jammer hits the transmit channel with probability
    1 / num_channels, independently of the defender, so the count is
    Binomial(attack slots, 1 / num_channels).
    """
    n = attack_slots(cfg)
    p = 1.0 / cfg["num_channels"]
    mean = n * p
    half = RANDOM_JAM_SIGMAS * math.sqrt(n * p * (1.0 - p))
    return mean - half, mean + half


def check_run(row: dict, cfg: dict, attacker: str) -> list[str]:
    """Accounting identities of one run's ``as_row()``."""
    tag = f"{attacker} seed {row['seed']}"
    problems = []
    slots = num_slots(cfg)
    if row["transmitted"] != slots:
        problems.append(f"{tag}: transmitted {row['transmitted']} != {slots} slots")
    if row["delivered"] + row["jammed"] != row["transmitted"]:
        problems.append(
            f"{tag}: delivered {row['delivered']} + jammed {row['jammed']} != transmitted {row['transmitted']}"
        )
    if row["recovered"] > row["jammed"]:
        problems.append(f"{tag}: recovered {row['recovered']} > jammed {row['jammed']}")
    if row["transmitted"]:
        pdr = (row["delivered"] + row["recovered"]) / row["transmitted"]
        if row["final_pdr"] != pdr:
            problems.append(f"{tag}: final_pdr {row['final_pdr']!r} != {pdr!r}")
    if not 0.0 <= row["final_pdr"] <= 1.0:
        problems.append(f"{tag}: final_pdr {row['final_pdr']!r} outside [0, 1]")
    energy = row["jammed"] * unit_retx_energy(cfg)
    if not math.isclose(row["extra_energy_j"], energy, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"{tag}: extra_energy_j {row['extra_energy_j']!r} != {row['jammed']} x unit = {energy!r}")
    if attacker == "oracle":
        expected = oracle_jams(cfg)
        if row["jammed"] != expected:
            problems.append(f"{tag}: oracle jammed {row['jammed']} != closed form {expected}")
    elif attacker == "random":
        lo, hi = random_jam_band(cfg)
        if not lo <= row["jammed"] <= hi:
            problems.append(f"{tag}: random jammer jammed {row['jammed']} outside [{lo:.1f}, {hi:.1f}]")
    return problems


def check_same_rows(rows: list[dict], reference: list[dict], what: str) -> list[str]:
    """Identical ``as_row()`` lists: a run is a pure function of (config, seed)."""
    if rows == reference:
        return []
    for row, ref in zip(rows, reference):
        if row != ref:
            return [f"{what}: seed {ref['seed']} gave {row} then {ref}"]
    return [f"{what}: {len(rows)} runs against {len(reference)}"]


def aggregate(rows: list[dict]) -> dict[str, float]:
    """The summary means of a batch, computed from its per-run rows."""
    means = {name: statistics.fmean(row[field] for row in rows) for name, field in SUMMARY_MEANS}
    means["std_pdr"] = statistics.pstdev(row["final_pdr"] for row in rows)
    return means


def check_summary(text: str, rows: list[dict], attacker: str, defender: str) -> list[str]:
    """``summary.csv`` against the aggregate of in-process runs of the same seeds."""
    records = list(csv.DictReader(io.StringIO(text)))
    if len(records) != 1:
        return [f"summary.csv of {attacker}: {len(records)} data rows, expected 1"]
    got = records[0]
    problems = []
    if (got["attacker"], got["defender"], got["runs"]) != (attacker, defender, str(len(rows))):
        problems.append(
            f"summary.csv names {got['attacker']} vs {got['defender']} x {got['runs']}, "
            f"expected {attacker} vs {defender} x {len(rows)}"
        )
    for name, value in aggregate(rows).items():
        if float(got[name]) != value:
            problems.append(f"summary.csv of {attacker}: {name} {got[name]} != {value!r}")
    return problems


def check_timeseries(text: str, cfg: dict, label: str) -> list[str]:
    """One ``run_<seed>.csv``: a row per simulated second, each row consistent."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != TIMESERIES_HEADER:
        return [f"{label}: header {header}"]
    stride = max(1, int(round(1.0 / cfg["slot_s"])))
    expected_rows = num_slots(cfg) // stride
    channels = range(cfg["num_channels"])
    problems = []
    count = 0
    last_t = -math.inf
    for count, fields in enumerate(reader, start=1):
        where = f"{label} row {count}"
        if len(fields) != len(TIMESERIES_HEADER):
            problems.append(f"{where}: {len(fields)} fields")
            continue
        t_s, pdr, tx, jam, outcome = fields
        if not float(t_s) > last_t:
            problems.append(f"{where}: t_s {t_s} not increasing")
        last_t = float(t_s)
        if not 0.0 <= float(pdr) <= 1.0:
            problems.append(f"{where}: pdr {pdr} outside [0, 1]")
        if int(tx) not in channels:
            problems.append(f"{where}: tx_channel {tx} out of range")
        if jam != "" and int(jam) not in channels:
            problems.append(f"{where}: jam_channel {jam} out of range")
        if outcome not in OUTCOMES:
            problems.append(f"{where}: outcome {outcome!r}")
        if (outcome == "jammed") != (jam == tx):
            problems.append(f"{where}: outcome {outcome} with tx {tx}, jam {jam!r}")
        if len(problems) > 10:
            break
    if count != expected_rows and len(problems) <= 10:
        problems.append(f"{label}: {count} rows, expected {expected_rows}")
    return problems
