"""Scenario configuration: defaults, file parsing, validation.

Config files are UTF-8 text of flat ``key = value`` lines; ``#`` starts a
comment and blank lines are skipped. Every key must be a known field, set on
one line only; values must parse as the field's type, and the merged result
must validate. CLI flags are applied on top of whatever the file sets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .attacker import ATTACKERS
from .defender import DEFENDERS


# Upper limits on the knobs that size allocations or run time. The bandit,
# the phased jammer and the smart defender keep per-channel lists: the bandit
# samples every arm each step, the phased jammer scans its map when it
# re-ranks, and the smart defender compares channels on a home move. A batch
# holds all of its runs in memory. A run steps through its slots one by one
# (quiet stretches against the random hopper aside), 10**8 of them already
# take minutes, and a traced run keeps one row per emission period.
MAX_CHANNELS = 1024
MAX_RUNS = 10_000
MAX_SLOTS = 10**8


class ConfigError(Exception):
    """Unusable configuration: unknown key, bad value, or failed validation."""


@dataclass
class ScenarioConfig:
    # Scenario shape
    num_channels: int = 12
    slot_s: float = 0.1
    sim_duration_s: float = 1790.0
    attack_start_s: float = 10.0
    hop_enable_s: float = 1.0
    attacker: str = "bandit"
    defender: str = "random"
    seed: int = 1
    runs: int = 1

    # Detector
    detection_threshold: float = 0.8
    detection_window_slots: int = 192

    # Random loss on otherwise clean slots
    loss_prob: float = 0.0

    # Energy model (formulas in ``metrics``): radio power per state, watts,
    # and air time per packet exchange leg, seconds
    p_tx_w: float = 0.67
    p_rx_w: float = 0.34
    p_idle_w: float = 0.30
    t_tx_data_s: float = 0.00397
    t_rx_data_s: float = 0.00695
    t_tx_ack_s: float = 0.00002
    t_rx_ack_s: float = 0.00003

    # Attacker knobs
    idle_trigger_slots: int = 58
    reactive_dwell_slots: int = 64
    listen_len_slots: int = 1000
    eval_len_slots: int = 400
    retrain_trigger: float = 0.05
    oracle_burst_slots: int = 39
    oracle_cooldown_slots: int = 154

    @property
    def num_slots(self) -> int:
        return int(round(self.sim_duration_s / self.slot_s))

    @property
    def attack_start_slot(self) -> int:
        return int(round(self.attack_start_s / self.slot_s))

    @property
    def hop_enable_slot(self) -> int:
        return int(round(self.hop_enable_s / self.slot_s))


_FIELD_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig)}
# Inclusive (least, most) bounds of every int field. eval_len_slots sizes the
# phased jammer's deque, whose maxlen must fit in sys.maxsize; the detector
# window is held to the same limit.
_INT_BOUNDS = {
    "num_channels": (2, MAX_CHANNELS),
    "seed": (0, math.inf),
    "runs": (1, MAX_RUNS),
    "detection_window_slots": (1, sys.maxsize),
    "idle_trigger_slots": (1, math.inf),
    "reactive_dwell_slots": (1, math.inf),
    "listen_len_slots": (1, math.inf),
    "eval_len_slots": (1, sys.maxsize),
    "oracle_burst_slots": (1, math.inf),
    "oracle_cooldown_slots": (0, math.inf),
}
# The phase starts, and the energy model's powers (p_*_w) and air times (t_*_s).
_NON_NEGATIVE_KEYS = ["attack_start_s", "hop_enable_s"] + [key for key in _FIELD_TYPES if key.startswith(("p_", "t_"))]


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} is not {kind.__name__}") from exc


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    values: dict[str, object] = {}
    # Where each key was set: a key set twice is an error, not a silent override.
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: {key!r} is set twice, on lines {set_on[key]} and {lineno}")
        set_on[key] = lineno
        values[key] = _convert(key, raw)
    return ScenarioConfig(**values)


def load_config(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse a config file, apply CLI overrides, validate, return the result."""
    path = Path(path)
    try:
        # UTF-8 on every host, whatever the locale would pick; a leading
        # byte-order mark, as some editors write, is dropped.
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    config = parse_config_text(text, source=str(path))
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown override {key!r}")
            setattr(config, key, _convert(key, str(value)))
    validate(config)
    return config


def _fits(value, kind: type) -> bool:
    """Whether ``value`` fits a field of type ``kind``: an int fits int and float fields, a bool none."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def validate(config: ScenarioConfig) -> None:
    # A value of another type would fail a check below with a TypeError, or
    # pass them all and run as something else (a bool or 192.0 as a count).
    mistyped = [key for key, kind in _FIELD_TYPES.items() if not _fits(getattr(config, key), kind)]
    if mistyped:
        raise ConfigError("; ".join(f"{key} must be {_FIELD_TYPES[key].__name__}" for key in mistyped))
    # NaN passes every range check below and inf overflows the slot counts,
    # so non-finite values are rejected before anything else looks at them.
    non_finite = [
        key for key, kind in _FIELD_TYPES.items() if kind is float and not math.isfinite(getattr(config, key))
    ]
    if non_finite:
        raise ConfigError(f"must be finite: {', '.join(non_finite)}")
    # The 1.0 is the trace's emission period, round(1 / slot_s) slots.
    if config.slot_s > 0 and not all(
        math.isfinite(seconds / config.slot_s)
        for seconds in (config.sim_duration_s, config.attack_start_s, config.hop_enable_s, 1.0)
    ):
        raise ConfigError("slot counts overflow: slot_s is too short for the durations or the 1 s trace period")
    problems = []
    for key, (least, most) in _INT_BOUNDS.items():
        value = getattr(config, key)
        if value < least:
            problems.append(f"{key} must be at least {least}")
        elif value > most:
            problems.append(f"{key} must be at most {most}")
    if config.slot_s <= 0:
        problems.append("slot_s must be positive")
    if config.sim_duration_s <= 0:
        problems.append("sim_duration_s must be positive")
    if config.slot_s > 0 and config.sim_duration_s > 0 and config.num_slots < 1:
        problems.append("simulation must cover at least one slot")
    if config.slot_s > 0 and config.num_slots > MAX_SLOTS:
        problems.append(f"sim_duration_s / slot_s must be at most {MAX_SLOTS} slots")
    problems += [f"{key} must not be negative" for key in _NON_NEGATIVE_KEYS if getattr(config, key) < 0]
    if not 0.0 < config.detection_threshold <= 1.0:
        problems.append("detection_threshold must be in (0, 1]")
    if not 0.0 <= config.loss_prob < 1.0:
        problems.append("loss_prob must be in [0, 1)")
    if config.attacker not in ATTACKERS:
        problems.append(f"attacker must be one of {sorted(ATTACKERS)}, got {config.attacker!r}")
    if config.defender not in DEFENDERS:
        problems.append(f"defender must be one of {sorted(DEFENDERS)}, got {config.defender!r}")
    if config.t_tx_data_s + config.t_rx_ack_s > config.slot_s:
        problems.append("t_tx_data_s + t_rx_ack_s (a delivered slot's air time) must not exceed slot_s")
    if not 0.0 <= config.retrain_trigger < 1.0:
        problems.append("retrain_trigger must be in [0, 1)")
    if problems:
        raise ConfigError("; ".join(problems))
