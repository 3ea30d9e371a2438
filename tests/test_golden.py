"""Pinned outputs: the simulator's results, byte for byte.

``tests/golden/pinned.json`` holds, for every (attacker, defender) pairing
and seeds 1-3, each run's ``as_row()`` and its final ``pdr_series`` point,
once at the reference scenario and once at a short lossy scenario that pins
the order of the random-loss draws. It also holds the SHA-256 of the
``collect_trace`` rows of one run of a pairing the CLI trace path covers.

A change that alters any output on purpose regenerates the file and says
why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hopwar.attacker import AttackStrategy
from hopwar.config import ScenarioConfig
from hopwar.defender import HopStrategy
from hopwar.engine import run_scenario

GOLDEN = Path(__file__).parent / "golden" / "pinned.json"
SEEDS = (1, 2, 3)
SCENARIOS = {
    "reference": {},
    "lossy": {"loss_prob": 0.1, "sim_duration_s": 300.0},
}
TRACED = {"attacker": "reactive", "defender": "random", "seed": 1}


def _pinned_runs(overrides: dict) -> list[dict]:
    entries = []
    for attacker in AttackStrategy:
        for defender in HopStrategy:
            config = ScenarioConfig(attacker=attacker.value, defender=defender.value, **overrides)
            for seed in SEEDS:
                run = run_scenario(config, seed=seed)
                entries.append(
                    {
                        "attacker": attacker.value,
                        "defender": defender.value,
                        "row": run.as_row(),
                        "final_point": list(run.pdr_series[-1]),
                    }
                )
    return entries


def _trace_digest() -> str:
    config = ScenarioConfig(attacker=TRACED["attacker"], defender=TRACED["defender"])
    run = run_scenario(config, seed=TRACED["seed"], collect_trace=True)
    text = "\n".join(repr(row) for row in run.trace)
    return hashlib.sha256(text.encode()).hexdigest()


def render() -> str:
    pinned = {name: _pinned_runs(overrides) for name, overrides in SCENARIOS.items()}
    pinned["trace"] = {**TRACED, "sha256": _trace_digest()}
    return json.dumps(pinned, indent=1) + "\n"


def test_outputs_match_the_pinned_file_byte_for_byte():
    assert render().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
