"""hopwar campaign benchmark.

    python3 perfbench/run.py --workload {random-hopper,smart-hopper,cli-trace}
                             --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload for at least S seconds, checks every output
against values computed from the config, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced run gives
the per-layer ones, plus the tracing overhead per slot. The line before it
carries the machine (nproc, Python, numpy) and the per-round figures.

hopwar is imported from ``src/`` of the checkout this file sits in.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT  # noqa: E402

WORKLOADS = ("random-hopper", "smart-hopper", "cli-trace")


def seconds_since_process_start() -> float:
    """Time since the kernel started this process (10 ms resolution on Linux).

    Falls back to the time since this module started where /proc is missing.
    """
    try:
        with open("/proc/self/stat") as handle:
            stat = handle.read()
        ticks = int(stat.rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - STARTED


def import_hopwar() -> None:
    """Import hopwar from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hopwar

    if Path(hopwar.__file__).resolve().parent != src / "hopwar":
        sys.exit(f"perfbench: imported hopwar from {hopwar.__file__}, not from {src}")


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, timed, rss_mib: float) -> dict:
    """Medians over the rounds of their times adjusted for host speed."""
    rates = [r.slots / r.adjusted_wall for r in timed.rounds]
    cpu = [r.adjusted_cpu * 1e6 / r.slots for r in timed.rounds]
    return {
        "setup_s": metric(setup_s, "s"),
        "slots_per_s": metric(statistics.median(rates), "slots/s"),
        "cpu_ms_per_kslot": metric(statistics.median(cpu), "ms/kslot"),
        "peak_rss_mb": metric(rss_mib, "MiB"),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    if workload == "cli-trace":
        inputs = workloads.CliInputs(seed)
        setup_s = workloads.cli_setup_probe(inputs)
        hostspeed.reference_cpu_seconds()  # warm-up
        import_hopwar()
        timed = workloads.run_cli(inputs, seconds)
        rss = workloads.peak_rss_mib(resource.RUSAGE_CHILDREN)
    else:
        import_hopwar()
        configs = workloads.campaign_configs(workload.split("-")[0], seed)
        setup_s = seconds_since_process_start()
        hostspeed.reference_cpu_seconds()  # warm-up
        timed = workloads.run_campaign(configs, seconds)
        rss = workloads.peak_rss_mib(resource.RUSAGE_SELF)
    metrics = end_to_end(setup_s, timed, rss)
    details = {
        "rounds": len(timed.rounds),
        "round_wall_s": [round(r.wall, 4) for r in timed.rounds],
        "round_slowdown": [round(r.slowdown, 3) for r in timed.rounds],
        "round_steal_share": [round(r.steal / r.wall, 3) for r in timed.rounds],
        "unadjusted_slots_per_s": statistics.median(r.slots / r.wall for r in timed.rounds),
        "slots_per_round": timed.rounds[0].slots,
        "problems": timed.problems[:20],
    }
    result = {"correct": not timed.problems, "attempted": timed.attempted, "failed": timed.failed}
    return result | {"metrics": metrics}, details


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import layers
    from tracing import Instrumentation

    from hopwar import cli, engine

    instrumentation = Instrumentation(engine, cli)
    if workload == "cli-trace":
        traced = workloads.trace_cli(workloads.CliInputs(seed), seconds, instrumentation)
    else:
        configs = workloads.campaign_configs(workload.split("-")[0], seed)
        traced = workloads.trace_campaign(configs, seconds, instrumentation)
    out = workloads.OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    instrumentation.tracer.save(out / "spans.npz")
    metrics, absent = layers.per_layer(traced, instrumentation)
    details = {
        "rounds": traced["rounds"],
        "untraced_round_s": [round(s, 4) for s in traced["plain_s"]],
        "traced_round_s": [round(s, 4) for s in traced["traced_s"]],
        "span_floor_ns": round(instrumentation.tracer.floor_ns, 1),
        "span_leak_ns": round(instrumentation.tracer.leak_ns, 1),
        "absent": absent,
        "spans": str((out / "spans.npz").relative_to(ROOT)),
        "problems": traced["problems"][:20],
    }
    print(layers.table(traced, absent))
    result = {"correct": not traced["problems"], "attempted": traced["attempted"], "failed": 0}
    return result | {"metrics": metrics}, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hopwar" / "__init__.py").is_file():
        print(f"perfbench: no hopwar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        import_hopwar()
        result, details = run_traced(args.workload, args.seed, args.seconds)
    else:
        result, details = run_untraced(args.workload, args.seed, args.seconds)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine()}
    print(json.dumps(header | details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
