"""Scenario configuration: defaults, file parsing, validation.

Config files are flat ``key = value`` lines; ``#`` starts a comment and
blank lines are skipped. Every key must be a known field, values must parse
as the field's type, and the merged result must validate. CLI flags are
applied on top of whatever the file sets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .attacker import AttackStrategy
from .defender import HopStrategy
from .metrics import PowerProfile, TimingProfile
from .phy import RadioProfile


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
    payload_bytes: int = 1000

    # Detector
    detection_threshold: float = 0.8
    detection_window_slots: int = 192

    # Radio levels
    rssi_clean_dbm: float = -40.0
    rssi_jammed_dbm: float = -120.0
    rssi_idle_dbm: float = -95.0
    rssi_occupied_dbm: float = -55.0
    occupancy_threshold_dbm: float = -80.0
    loss_prob: float = 0.0

    # Energy model
    p_tx_w: float = 0.67
    p_rx_w: float = 0.34
    p_idle_w: float = 0.30
    p_sleep_w: float = 0.001
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

    def radio_profile(self) -> RadioProfile:
        return RadioProfile(
            rssi_clean_dbm=self.rssi_clean_dbm,
            rssi_jammed_dbm=self.rssi_jammed_dbm,
            rssi_idle_dbm=self.rssi_idle_dbm,
            rssi_occupied_dbm=self.rssi_occupied_dbm,
            occupancy_threshold_dbm=self.occupancy_threshold_dbm,
            loss_prob=self.loss_prob,
        )

    def power_profile(self) -> PowerProfile:
        return PowerProfile(self.p_tx_w, self.p_rx_w, self.p_idle_w, self.p_sleep_w)

    def timing_profile(self) -> TimingProfile:
        return TimingProfile(self.t_tx_data_s, self.t_rx_data_s, self.t_tx_ack_s, self.t_rx_ack_s)

    def as_dict(self) -> dict:
        return asdict(self)


_FIELD_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} is not {kind.__name__}") from exc


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    values: dict[str, object] = {}
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
        values[key] = _convert(key, raw)
    return ScenarioConfig(**values)


def load_config(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse a config file, apply CLI overrides, validate, return the result."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
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


def validate(config: ScenarioConfig) -> None:
    # NaN passes every range check below and inf overflows the slot counts,
    # so non-finite values are rejected before anything else looks at them.
    non_finite = [
        key for key, kind in _FIELD_TYPES.items() if kind is float and not math.isfinite(getattr(config, key))
    ]
    if non_finite:
        raise ConfigError(f"must be finite: {', '.join(non_finite)}")
    if config.slot_s > 0 and not all(
        math.isfinite(seconds / config.slot_s)
        for seconds in (config.sim_duration_s, config.attack_start_s, config.hop_enable_s)
    ):
        raise ConfigError("slot counts overflow: durations are too long for slot_s")
    problems = []
    if config.num_channels < 2:
        problems.append("num_channels must be at least 2")
    if config.slot_s <= 0:
        problems.append("slot_s must be positive")
    if config.sim_duration_s <= 0:
        problems.append("sim_duration_s must be positive")
    if config.slot_s > 0 and config.sim_duration_s > 0 and config.num_slots < 1:
        problems.append("simulation must cover at least one slot")
    if config.attack_start_s < 0:
        problems.append("attack_start_s must not be negative")
    if config.hop_enable_s < 0:
        problems.append("hop_enable_s must not be negative")
    if config.runs < 1:
        problems.append("runs must be at least 1")
    if config.seed < 0:
        problems.append("seed must not be negative")
    if not 0.0 < config.detection_threshold <= 1.0:
        problems.append("detection_threshold must be in (0, 1]")
    if config.detection_window_slots < 1:
        problems.append("detection_window_slots must be at least 1")
    if config.detection_window_slots > sys.maxsize:
        problems.append(f"detection_window_slots must be at most {sys.maxsize}")
    if not 0.0 <= config.loss_prob < 1.0:
        problems.append("loss_prob must be in [0, 1)")
    if config.attacker not in {s.value for s in AttackStrategy}:
        problems.append(
            f"attacker must be one of {sorted(s.value for s in AttackStrategy)}, got {config.attacker!r}"
        )
    if config.defender not in {s.value for s in HopStrategy}:
        problems.append(
            f"defender must be one of {sorted(s.value for s in HopStrategy)}, got {config.defender!r}"
        )
    if config.idle_trigger_slots < 1:
        problems.append("idle_trigger_slots must be at least 1")
    if config.reactive_dwell_slots < 1:
        problems.append("reactive_dwell_slots must be at least 1")
    if config.listen_len_slots < 1:
        problems.append("listen_len_slots must be at least 1")
    if config.eval_len_slots < 1:
        problems.append("eval_len_slots must be at least 1")
    if not 0.0 <= config.retrain_trigger < 1.0:
        problems.append("retrain_trigger must be in [0, 1)")
    if config.oracle_burst_slots < 1:
        problems.append("oracle_burst_slots must be positive")
    if config.oracle_cooldown_slots < 0:
        problems.append("oracle_cooldown_slots must not be negative")
    if problems:
        raise ConfigError("; ".join(problems))
