"""Acceptance suite: the headline results the simulator must reproduce.

Each test pins one deliverable behavior end to end, from exact posterior
arithmetic up to full 200-seed campaigns of every attacker against both
defender policies. Tolerance bands are sized for a 200-seed batch; wall
clock budgets keep the suite runnable on a laptop.

``tests/golden/campaign.json`` pins both campaigns byte for byte. A change
that alters a campaign output on purpose regenerates it and says why:

    PYTHONPATH=src python tests/test_acceptance.py
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import math
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hopwar.attacker import ATTACKERS
from hopwar.bandit import ThompsonSampler
from hopwar.config import ScenarioConfig
from hopwar.engine import SUMMARY_HEADER, run_batch, summary_row
from hopwar.metrics import retx_energy

RUNS = 200
CAMPAIGN_BUDGET_S = 180.0
CAMPAIGN_GOLDEN = Path(__file__).parent / "golden" / "campaign.json"


def _campaign(defender: str):
    t0 = time.perf_counter()
    batches = {
        attacker: run_batch(ScenarioConfig(attacker=attacker, defender=defender, runs=RUNS))
        for attacker in ATTACKERS
    }
    return batches, time.perf_counter() - t0


def render_campaigns(*campaigns) -> str:
    """The pinned file for the given ``_campaign`` results.

    Per pairing: the ``emit_summary`` fields, mean hops and mean total
    energy (``repr``), and the SHA-256 of every run's ``as_row()`` in seed
    order, which catches a one-ulp change in one run that a mean could absorb.
    """
    pinned = {}
    for batches, _ in campaigns:
        for attacker, batch in batches.items():
            rows = "\n".join(repr(run.as_row()) for run in batch.runs)
            pinned[f"{attacker} vs {batch.config.defender}"] = {
                "summary": dict(zip(SUMMARY_HEADER, summary_row(batch))),
                "mean_hops": repr(batch.mean("hops")),
                "mean_total_energy_j": repr(batch.mean("total_energy_j")),
                "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
            }
    return json.dumps(pinned, indent=1) + "\n"


@pytest.fixture(scope="module")
def versus_random_hopper():
    return _campaign("random")


@pytest.fixture(scope="module")
def versus_adaptive_hopper():
    return _campaign("smart")


def test_beta_posterior_replay_is_exact():
    # After any reward history the posterior must equal the uniform prior
    # plus the per-arm tallies: alpha = 1 + successes, beta = 1 + failures.
    t0 = time.perf_counter()
    pyrng = random.Random(20260819)
    for _ in range(1000):
        n = pyrng.randint(1, 12)
        sampler = ThompsonSampler(n, 300)
        wins = [0] * n
        losses = [0] * n
        for _ in range(pyrng.randint(0, 300)):
            arm = pyrng.randrange(n)
            reward = pyrng.randint(0, 1)
            sampler.update(arm, reward)
            wins[arm] += reward
            losses[arm] += 1 - reward
        for j, (alpha, beta) in enumerate(sampler.arms):
            assert alpha == 1.0 + wins[j]
            assert beta == 1.0 + losses[j]
    assert time.perf_counter() - t0 < 5.0


def test_thompson_sampling_locks_onto_the_best_arm():
    # Ten Bernoulli arms, one at 0.9 and the rest at 0.5: over the last
    # 1000 of 10000 steps the sampler must play the best arm at least 85%
    # of the time, averaged over 100 seeds.
    t0 = time.perf_counter()
    shares = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        best = int(rng.integers(10))
        sampler = ThompsonSampler(10, 10_000)
        tail_hits = 0
        for step in range(10000):
            arm = sampler.select_arm(rng)
            p_win = 0.9 if arm == best else 0.5
            sampler.update(arm, 1 if rng.random() < p_win else 0)
            if step >= 9000 and arm == best:
                tail_hits += 1
        shares.append(tail_hits / 1000.0)
    mean_share = statistics.fmean(shares)
    assert mean_share >= 0.85, f"mean best-arm share {mean_share:.4f} < 0.85"
    assert time.perf_counter() - t0 < 30.0


def test_retransmission_energy_model():
    t0 = time.perf_counter()
    one_retx = retx_energy(ScenarioConfig())
    # Direct substitution of the default power/timing constants.
    data_leg = 0.00397 * 0.67 + 0.00695 * 0.34
    ack_leg = 0.00002 * 0.67 + 0.00003 * 0.34
    assert one_retx == data_leg + ack_leg
    assert abs(one_retx - 0.0050465) < 1e-9
    assert abs(one_retx - 0.0050431) < 7e-6
    for count, joules in [(738, 3.72), (641, 3.23), (74, 0.373), (280, 1.41), (212, 1.06), (38, 0.19)]:
        total = count * one_retx
        assert abs(total - joules) <= 0.01, f"{count} retransmissions -> {total:.4f} J, expected ~{joules} J"
    assert time.perf_counter() - t0 < 1.0


def test_campaign_against_random_hopper(versus_random_hopper):
    batches, elapsed = versus_random_hopper
    pdr = {name: batch.mean("final_pdr") for name, batch in batches.items()}
    rate = {name: batch.mean("success_rate") for name, batch in batches.items()}
    problems = []
    ranked = ["oracle", "bandit", "phased", "reactive", "random"]
    for weaker, stronger in zip(ranked[1:], ranked):
        if pdr[stronger] > pdr[weaker]:
            problems.append(f"mean pdr ordering broken: {stronger} {pdr[stronger]:.4f} > {weaker} {pdr[weaker]:.4f}")
    if not 0.79 <= pdr["oracle"] <= 0.81:
        problems.append(f"oracle mean pdr {pdr['oracle']:.4f} outside [0.79, 0.81]")
    if not 0.80 <= pdr["bandit"] <= 0.85:
        problems.append(f"bandit mean pdr {pdr['bandit']:.4f} outside [0.80, 0.85]")
    if rate["oracle"] - rate["bandit"] > 0.04:
        problems.append(
            f"oracle jam rate {rate['oracle']:.4f} leads bandit {rate['bandit']:.4f} by more than 0.04"
        )
    if not 0.14 <= rate["oracle"] <= 0.21:
        problems.append(f"oracle mean jam rate {rate['oracle']:.4f} outside [0.14, 0.21]")
    if not 0.11 <= rate["bandit"] <= 0.19:
        problems.append(f"bandit mean jam rate {rate['bandit']:.4f} outside [0.11, 0.19]")
    noisy = [r.detections for r in batches["random"].runs if r.detections != 0]
    if noisy:
        problems.append(f"random attacker tripped the detector in {len(noisy)} runs")
    if elapsed >= CAMPAIGN_BUDGET_S:
        problems.append(f"campaign took {elapsed:.0f}s, budget {CAMPAIGN_BUDGET_S:.0f}s")
    assert not problems, "; ".join(problems)


def test_campaign_against_adaptive_hopper(versus_adaptive_hopper):
    batches, elapsed = versus_adaptive_hopper
    pdr = {name: batch.mean("final_pdr") for name, batch in batches.items()}
    rate = {name: batch.mean("success_rate") for name, batch in batches.items()}
    retx = {name: batch.mean("retransmissions") for name, batch in batches.items()}
    problems = []
    if pdr["random"] < 0.97:
        problems.append(f"random-attacker mean pdr {pdr['random']:.4f} < 0.97")
    noisy = [r.detections for r in batches["random"].runs if r.detections != 0]
    if noisy:
        problems.append(f"random attacker tripped the detector in {len(noisy)} runs")
    if not 0.90 <= pdr["bandit"] <= 0.96:
        problems.append(f"bandit mean pdr {pdr['bandit']:.4f} outside [0.90, 0.96]")
    if rate["bandit"] < 2.0 * rate["phased"]:
        problems.append(
            f"bandit mean jam rate {rate['bandit']:.4f} below twice phased {rate['phased']:.4f}"
        )
    ranked = ["oracle", "bandit", "phased", "reactive", "random"]
    for weaker, stronger in zip(ranked[1:], ranked):
        if retx[stronger] <= retx[weaker]:
            problems.append(
                f"mean retransmission ordering broken: {stronger} {retx[stronger]:.0f} <= {weaker} {retx[weaker]:.0f}"
            )
    if elapsed >= CAMPAIGN_BUDGET_S:
        problems.append(f"campaign took {elapsed:.0f}s, budget {CAMPAIGN_BUDGET_S:.0f}s")
    assert not problems, "; ".join(problems)


def test_cli_runs_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "scenario.cfg"
    config.write_text("attacker = bandit\ndefender = smart\nseed = 7\nruns = 1\n")
    outs = []
    for label in ("first", "second"):
        out_dir = tmp_path / label
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hopwar",
                "run",
                "--config",
                str(config),
                "--out-dir",
                str(out_dir),
                "--timeseries",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_dir)
    for name in ("summary.csv", "run_7.csv"):
        first, second = outs[0] / name, outs[1] / name
        assert first.is_file() and second.is_file()
        assert filecmp.cmp(first, second, shallow=False), f"{name} differs between identical runs"
    assert time.perf_counter() - t0 < 10.0


def test_campaign_outputs_match_the_pinned_file_byte_for_byte(versus_random_hopper, versus_adaptive_hopper, pin_note):
    rendered = render_campaigns(versus_random_hopper, versus_adaptive_hopper)
    assert rendered.encode() == CAMPAIGN_GOLDEN.read_bytes(), pin_note


def readme_paper_section() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("## Against the paper", 1)[1].split("\n## ", 1)[0]


def test_readme_paper_table_quotes_the_pinned_jam_rates():
    # The "Against the paper" table must quote each attacker's pinned mean
    # jam rate against the random hopper, rounded to 0.1%.
    section = readme_paper_section()
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("|")]
    pinned = json.loads(CAMPAIGN_GOLDEN.read_text())
    quoted = {}
    for name, rate, _paper in rows[2:]:
        attacker = name.split("`")[1]
        quoted[attacker] = rate.strip()
        expected = float(pinned[f"{attacker} vs random"]["summary"]["mean_success_rate"])
        assert quoted[attacker] == f"{100 * expected:.1f}%", attacker
    assert sorted(quoted) == ["bandit", "oracle", "phased"]


def test_readme_paper_prose_quotes_the_pinned_detections_and_energy():
    # The prose under the table quotes, from the pinned campaigns: the mean
    # detections per run of the three paper attackers against the random
    # hopper (to 0.1), zero detections in every smart-hopper pairing, and
    # the range of mean total energy over all ten pairings (to 1 mJ).
    section = readme_paper_section()
    pinned = json.loads(CAMPAIGN_GOLDEN.read_text())
    stealth = " ".join(section.split("**Stealth limit.**", 1)[1].split("\n\n", 1)[0].split())
    quoted = {name: count for count, name in re.findall(r"(\d+\.\d)(?: times)? for `(\w+)`", stealth)}
    assert sorted(quoted) == ["bandit", "oracle", "phased"]
    for attacker, count in quoted.items():
        expected = float(pinned[f"{attacker} vs random"]["summary"]["mean_detections"])
        assert count == f"{expected:.1f}", attacker
    assert "Detections read 0 in every smart-hopper pairing" in section
    smart = [entry for name, entry in pinned.items() if name.endswith(" vs smart")]
    assert len(smart) == 5 and all(float(entry["summary"]["mean_detections"]) == 0.0 for entry in smart)
    energies = [float(entry["mean_total_energy_j"]) for entry in pinned.values()]
    assert len(energies) == 10
    assert f"`total_energy_j` reads {min(energies):.3f}–{max(energies):.3f} J" in " ".join(section.split())


def test_delivery_accounting_conserves_packets(versus_random_hopper, versus_adaptive_hopper):
    # Every run of both campaigns: each slot's packet is either delivered
    # or jammed, every jammed packet costs exactly one retransmission, and
    # the delivery ratio is a proper ratio. The per-period detector ratios
    # are checked in tests/test_engine.py.
    for batches, _ in (versus_random_hopper, versus_adaptive_hopper):
        for batch in batches.values():
            for run in batch.runs:
                assert run.transmitted == run.delivered + run.jammed
                assert run.retransmissions == run.jammed
                assert 0.0 <= run.final_pdr <= 1.0


def test_campaign_runs_match_their_closed_forms(versus_random_hopper, versus_adaptive_hopper):
    # Every run of both campaigns, against values worked out from the config
    # alone, not from hopwar's helpers: on the lossless link the oracle jams
    # bursts of B slots with C silent slots between them, every emission on
    # the victim's channel, and the uniform jammer hits the transmit channel
    # with probability 1 / channels in each attack slot.
    for batches, _ in (versus_random_hopper, versus_adaptive_hopper):
        config = batches["oracle"].config
        assert config.loss_prob == 0.0
        attack_slots = round(config.sim_duration_s / config.slot_s) - round(config.attack_start_s / config.slot_s)
        burst = config.oracle_burst_slots
        full, rest = divmod(attack_slots, burst + config.oracle_cooldown_slots)
        oracle_jams = full * burst + min(rest, burst)
        # The detector fires on one failure more than its budget and then
        # starts clean, so a burst one slot longer than the budget fires once,
        # at its last slot, and a shorter tail burst never does.
        window = config.detection_window_slots
        failure_budget = window - math.ceil(config.detection_threshold * window)
        assert burst == failure_budget + 1
        expected_detections = oracle_jams // burst if config.defender == "random" else 0
        for run in batches["oracle"].runs:
            assert (run.jammed, run.detections) == (oracle_jams, expected_detections), (config.defender, run.seed)
        p = 1.0 / config.num_channels
        mean, sd = attack_slots * p, math.sqrt(attack_slots * p * (1.0 - p))
        for run in batches["random"].runs:
            assert abs(run.jammed - mean) <= 7.0 * sd, (config.defender, run.seed, run.jammed)


if __name__ == "__main__":
    CAMPAIGN_GOLDEN.parent.mkdir(exist_ok=True)
    CAMPAIGN_GOLDEN.write_text(render_campaigns(_campaign("random"), _campaign("smart")))
    print(f"wrote {CAMPAIGN_GOLDEN}")
