import pytest

from hopwar.config import ConfigError, ScenarioConfig, load_config, parse_config_text, validate


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
        ("slot_s", 0.0),
        ("sim_duration_s", -1.0),
        ("runs", 0),
        ("seed", -1),
        ("detection_threshold", 0.0),
        ("detection_threshold", 1.5),
        ("detection_window_slots", 0),
        ("detection_window_slots", 10**30),
        ("loss_prob", 1.0),
        ("attacker", "nuke"),
        ("defender", "teleport"),
        ("idle_trigger_slots", 0),
        ("reactive_dwell_slots", 0),
        ("listen_len_slots", 0),
        ("eval_len_slots", 0),
        ("retrain_trigger", 1.0),
        ("oracle_burst_slots", 0),
        ("oracle_cooldown_slots", -1),
        ("slot_s", float("nan")),
        ("attack_start_s", float("nan")),
        ("hop_enable_s", float("nan")),
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
    ],
)
def test_validation_rejects(field, value):
    cfg = ScenarioConfig(**{field: value})
    with pytest.raises(ConfigError):
        validate(cfg)


def test_validation_rejects_slot_counts_that_overflow():
    with pytest.raises(ConfigError, match="overflow"):
        validate(ScenarioConfig(sim_duration_s=1e300, slot_s=1e-10))


def test_profile_builders_carry_the_config_values():
    cfg = ScenarioConfig(p_tx_w=1.0, t_tx_ack_s=0.5)
    assert cfg.power_profile().p_tx_w == 1.0
    assert cfg.timing_profile().t_tx_ack_s == 0.5


def test_as_dict_is_flat_and_complete():
    d = ScenarioConfig().as_dict()
    assert d["num_channels"] == 12
    assert d["oracle_cooldown_slots"] == 154
    assert len(d) == 26
