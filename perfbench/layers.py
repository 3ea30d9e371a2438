"""Per-layer metrics derived from a traced run's spans and counters.

LAYER_METRICS is the list BENCHMARK.json's ``per_layer`` mirrors. A metric
whose layer recorded no calls in the run (the workload does not exercise it,
or the program no longer calls it) is reported with value 0 and listed as
absent.
"""

from __future__ import annotations

import statistics

from workloads import ATTACKERS

POLICIES = ("random", "smart")


def _metric_names() -> list[tuple[str, str]]:
    names = [("phy.resolve_slot_us", "us")]
    for policy in POLICIES:
        names += [
            (f"defender.{policy}.advance_us", "us"),
            (f"defender.{policy}.record_and_detect_us", "us"),
            (f"defender.{policy}.hops_per_run", "count/run"),
            (f"defender.{policy}.detections_per_run", "count/run"),
        ]
    for attacker in ATTACKERS:
        names += [(f"attacker.{attacker}.step_us", "us"), (f"attacker.{attacker}.observe_us", "us")]
    names += [
        ("attacker.phased.retrains_per_run", "count/run"),
        ("bandit.select_arm_us", "us"),
        ("bandit.update_us", "us"),
        ("bandit.rng_calls_per_select", "calls/select"),
        ("bandit.sample_use_ratio", "ratio"),
        ("engine.loop_self_us", "us"),
        ("engine.trace_us_per_slot", "us"),
        ("engine.emit_timeseries_ms", "ms"),
        ("engine.emit_summary_ms", "ms"),
        ("config.load_config_ms", "ms"),
        ("trace.overhead_us_per_slot", "us"),
    ]
    return names


LAYER_METRICS = _metric_names()
# Metrics timed as self time per call of the span of the same name.
_SCALE = {"us": 1e3, "ms": 1e6}


def per_layer(traced: dict, instrumentation) -> tuple[dict, list[str]]:
    """(metrics for the result line, names of the absent ones)."""
    stats = traced["stats"]
    runs = instrumentation.runs
    rng = instrumentation.rng
    values: dict[str, float | None] = {}

    def per_call(name: str, span: str, unit: str) -> None:
        calls, ns = stats.get(span, (0, 0))
        values[name] = ns / calls / _SCALE[unit] if calls else None

    def per_run(name: str, field: str, **match) -> None:
        counts = [run[field] for run in runs if all(run[k] == v for k, v in match.items())]
        values[name] = statistics.fmean(counts) if counts and None not in counts else None

    per_call("phy.resolve_slot_us", "phy.resolve_slot", "us")
    for policy in POLICIES:
        for method in ("advance", "record_and_detect"):
            per_call(f"defender.{policy}.{method}_us", f"defender.{policy}.{method}", "us")
        per_run(f"defender.{policy}.hops_per_run", "hops", defender=policy)
        per_run(f"defender.{policy}.detections_per_run", "detections", defender=policy)
    for attacker in ATTACKERS:
        for method in ("step", "observe"):
            per_call(f"attacker.{attacker}.{method}_us", f"attacker.{attacker}.{method}", "us")
    per_run("attacker.phased.retrains_per_run", "retrains", attacker="phased")
    per_call("bandit.select_arm_us", "bandit.select_arm", "us")
    per_call("bandit.update_us", "bandit.update", "us")
    selects = stats.get("bandit.select_arm", (0, 0))[0]
    values["bandit.rng_calls_per_select"] = rng.calls / selects if selects else None
    values["bandit.sample_use_ratio"] = rng.used / rng.drawn if rng.drawn else None
    loop_calls, loop_ns = stats.get("engine.run_scenario", (0, 0))
    traced_slots = sum(run["slots"] for run in runs) * traced["rounds"]
    values["engine.loop_self_us"] = loop_ns / traced_slots / 1e3 if loop_calls and traced_slots else None
    values["engine.trace_us_per_slot"] = traced.get("trace_us_per_slot")
    per_call("engine.emit_timeseries_ms", "engine.emit_timeseries", "ms")
    per_call("engine.emit_summary_ms", "engine.emit_summary", "ms")
    per_call("config.load_config_ms", "config.load_config", "ms")
    values["trace.overhead_us_per_slot"] = traced["overhead_us_per_slot"]

    metrics, absent = {}, []
    for name, unit in LAYER_METRICS:
        value = values[name]
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def table(traced: dict, absent: list[str]) -> str:
    """Human-readable span summary: calls and self time per span name."""
    stats = traced["stats"]
    lines = [f"{'span':40} {'calls':>10} {'self ms':>12} {'us/call':>10}"]
    for name in sorted(stats):
        calls, ns = stats[name]
        lines.append(f"{name:40} {calls:10d} {ns / 1e6:12.1f} {ns / calls / 1e3:10.3f}")
    lines.append(f"traced round overhead: {traced['overhead_us_per_slot']:.3f} us/slot over the untraced round")
    lines.append("absent: " + (", ".join(absent) if absent else "none"))
    return "\n".join(lines)
