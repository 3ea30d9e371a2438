import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopwar.config import (
    MAX_CHANNELS,
    MAX_RUNS,
    MAX_SLOTS,
    ConfigError,
    ScenarioConfig,
    load_config,
    parse_config_text,
    validate,
)
from hopwar.metrics import retx_energy, total_energy

ENERGY_KEYS = ("p_tx_w", "p_rx_w", "p_idle_w", "t_tx_data_s", "t_rx_data_s", "t_tx_ack_s", "t_rx_ack_s")


def test_defaults_describe_the_reference_scenario():
    cfg = ScenarioConfig()
    assert cfg.num_channels == 12
    assert cfg.slot_s == 0.1
    assert cfg.num_slots == 17900
    assert cfg.attack_start_slot == 100
    assert cfg.hop_enable_slot == 10
    assert cfg.detection_threshold == 0.8
    validate(cfg)


def test_parse_roundtrip_with_comments_and_blanks():
    text = """
    # scenario
    num_channels = 8
    sim_duration_s = 100.5   # inline comment
    attacker = reactive

    seed = 42
    """
    cfg = parse_config_text(text)
    assert cfg.num_channels == 8
    assert cfg.sim_duration_s == 100.5
    assert cfg.attacker == "reactive"
    assert cfg.seed == 42
    # Untouched keys keep their defaults.
    assert cfg.defender == "random"


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("channel_count = 12")


def test_a_key_set_twice_is_an_error_naming_both_lines():
    # The last line used to win silently: this file ran 3 seeds.
    text = "# two batches?\nruns = 2\nattacker = oracle\nruns = 3\n"
    with pytest.raises(ConfigError, match=r"^scenario.cfg:4: 'runs' is set twice, on lines 2 and 4$"):
        parse_config_text(text, source="scenario.cfg")


def test_bad_value_is_an_error():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("num_channels = twelve")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("num_channels = 12.5")


def test_line_without_equals_is_an_error():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words")


def test_load_config_applies_overrides_last(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("seed = 5\nruns = 3\nattacker = random\n")
    cfg = load_config(path, overrides={"seed": 99, "runs": None})
    assert cfg.seed == 99
    assert cfg.runs == 3
    assert cfg.attacker == "random"


def test_config_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    # The mark was read as part of the first key: unknown key '\ufeffattacker'.
    text = "attacker = bandit\ndefender = smart\nseed = 7\n"
    plain = tmp_path / "plain.cfg"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.cfg"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(marked) == load_config(plain)
    assert load_config(marked).attacker == "bandit"


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_load_config_validates(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_channels = 1\n")
    with pytest.raises(ConfigError, match="num_channels"):
        load_config(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_channels", 0),
        ("num_channels", 1),
        ("num_channels", MAX_CHANNELS + 1),
        ("num_channels", 2**64),
        ("slot_s", 0.0),
        ("sim_duration_s", -1.0),
        ("runs", 0),
        ("runs", MAX_RUNS + 1),
        ("runs", 10**30),
        ("seed", -1),
        ("detection_threshold", 0.0),
        ("detection_threshold", 1.5),
        ("detection_window_slots", 0),
        ("detection_window_slots", sys.maxsize + 1),
        ("detection_window_slots", 10**30),
        ("loss_prob", 1.0),
        ("attacker", "nuke"),
        ("defender", "teleport"),
        ("idle_trigger_slots", 0),
        ("reactive_dwell_slots", 0),
        ("listen_len_slots", 0),
        ("eval_len_slots", 0),
        ("eval_len_slots", sys.maxsize + 1),
        ("eval_len_slots", 10**30),
        ("retrain_trigger", 1.0),
        ("oracle_burst_slots", 0),
        ("oracle_cooldown_slots", -1),
        ("slot_s", float("nan")),
        ("attack_start_s", float("nan")),
        ("hop_enable_s", float("nan")),
        ("attack_start_s", -0.1),
        ("hop_enable_s", -0.1),
        ("sim_duration_s", float("inf")),
        ("p_idle_w", float("-inf")),
        ("p_idle_w", -1.0),
        ("p_tx_w", -0.67),
        ("p_rx_w", -0.34),
        ("t_tx_data_s", -0.001),
        ("t_rx_data_s", -0.001),
        ("t_tx_ack_s", -0.001),
        ("t_rx_ack_s", -0.001),
        ("t_tx_data_s", 0.2),
        ("t_rx_ack_s", 0.1),
        ("sim_duration_s", 1e12),
        ("sim_duration_s", (MAX_SLOTS + 1) * 0.1),
        # Int fields take ints but not bools, float fields ints or floats,
        # and str fields strs; these raised a TypeError or ran silently.
        ("num_channels", 12.0),
        ("runs", "3"),
        ("seed", 1.5),
        ("seed", True),
        ("detection_window_slots", 192.0),
        ("slot_s", "0.1"),
        ("loss_prob", False),
        ("attacker", 3),
    ],
)
def test_validation_rejects(field, value):
    cfg = ScenarioConfig(**{field: value})
    with pytest.raises(ConfigError):
        validate(cfg)


def test_validation_accepts_an_int_in_a_float_field():
    validate(ScenarioConfig(sim_duration_s=60, slot_s=1, t_tx_data_s=0, t_rx_ack_s=0, loss_prob=0))


def test_validation_accepts_the_upper_limits():
    validate(ScenarioConfig(num_channels=MAX_CHANNELS, runs=MAX_RUNS))
    validate(ScenarioConfig(sim_duration_s=MAX_SLOTS * 0.1))
    validate(ScenarioConfig(detection_window_slots=sys.maxsize, eval_len_slots=sys.maxsize))
    # And every int field at its least value.
    validate(
        ScenarioConfig(
            num_channels=2,
            seed=0,
            runs=1,
            detection_window_slots=1,
            idle_trigger_slots=1,
            reactive_dwell_slots=1,
            listen_len_slots=1,
            eval_len_slots=1,
            oracle_burst_slots=1,
            oracle_cooldown_slots=0,
        )
    )


def test_validation_rejects_slot_counts_that_overflow():
    with pytest.raises(ConfigError, match="overflow"):
        validate(ScenarioConfig(sim_duration_s=1e300, slot_s=1e-10))
    # Every duration fits, but the trace period, round(1 / slot_s) slots, does not.
    tiny = ScenarioConfig(
        slot_s=5e-324, sim_duration_s=5e-324, attack_start_s=0, hop_enable_s=0, t_tx_data_s=0, t_rx_ack_s=0
    )
    with pytest.raises(ConfigError, match="overflow"):
        validate(tiny)


def test_energy_knobs_reach_both_formulas():
    cfg = ScenarioConfig(
        sim_duration_s=10.0,
        p_tx_w=1.0,
        p_rx_w=2.0,
        p_idle_w=4.0,
        t_tx_data_s=0.01,
        t_rx_data_s=0.02,
        t_tx_ack_s=0.03,
        t_rx_ack_s=0.04,
    )
    validate(cfg)
    assert retx_energy(cfg) == pytest.approx(0.01 * 1.0 + 0.02 * 2.0 + 0.03 * 1.0 + 0.04 * 2.0, rel=1e-12)
    # 100 slots of 0.1 s, 60 of them delivered and acknowledged.
    tx_s, rx_s = 100 * 0.01, 60 * 0.04
    idle_s = 10.0 - tx_s - rx_s
    assert total_energy(cfg, 60) == pytest.approx(1.0 * tx_s + 2.0 * rx_s + 4.0 * idle_s, rel=1e-12)
    # Every knob moves at least one of the two formulas off its default.
    base = ScenarioConfig()
    for key in ENERGY_KEYS:
        moved = replace(base, **{key: getattr(base, key) * 2})
        assert (retx_energy(moved), total_energy(moved, 60)) != (retx_energy(base), total_energy(base, 60)), key


def test_as_dict_is_flat_and_complete():
    d = asdict(ScenarioConfig())
    assert d["num_channels"] == 12
    assert d["oracle_cooldown_slots"] == 154
    assert len(d) == 26


KEYS = [f.name for f in fields(ScenarioConfig)]
HOSTILE_VALUES = (
    "nan",
    "-nan",
    "inf",
    "-inf",
    "1e308",
    "-1e308",
    "5e-324",
    "-5e-324",
    "9" * 5000,
    "-" + "9" * 5000,
    "1" + "0" * 30,
    "18446744073709551616",
    "1e12",
    "",
    "0",
    "-1",
    "bandit",
    "smart",
)
VALUES = st.one_of(
    st.sampled_from(HOSTILE_VALUES),
    st.integers().map(str),
    st.integers(0, 2**70).map(str),
    st.floats().map(repr),
    st.text(alphabet="0123456789.-+eE_xnaif #=", max_size=12),
)


@settings(max_examples=400)
@given(lines=st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=4))
def test_fuzzed_config_text_fails_only_with_config_errors(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        config = parse_config_text(text)
        validate(config)
    except ConfigError:
        return
    assert 2 <= config.num_channels <= MAX_CHANNELS
    assert 1 <= config.runs <= MAX_RUNS
    assert 1 <= config.num_slots <= MAX_SLOTS


SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "scenario.cfg"


def test_shipped_example_config_loads_and_shows_real_defaults():
    assert load_config(SHIPPED_CONFIG) == ScenarioConfig(attacker="bandit", defender="smart", seed=7, runs=20)
    defaults = ScenarioConfig()
    commented = re.findall(r"^#\s*(\w+)\s*=\s*(\S+)", SHIPPED_CONFIG.read_text(), re.MULTILINE)
    assert commented
    for key, raw in commented:
        parsed = parse_config_text(f"{key} = {raw}")
        assert getattr(parsed, key) == getattr(defaults, key), key
