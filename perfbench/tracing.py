"""Spans around hopwar's layer boundaries, recorded from outside the package.

The engine looks up ``resolve_slot``, ``Defender``, ``make_attacker`` and
``run_scenario`` as module globals, and the CLI looks up ``load_config``,
``run_batch``, ``emit_summary`` and ``emit_timeseries`` the same way.
``Instrumentation`` swaps those names for wrappers while it is active, and
the ``Defender`` / ``make_attacker`` wrappers wrap the methods of each object
the engine builds. Each call becomes one span (name, start, end, parent);
spans live in flat arrays in memory and are written out on request.

A name the package no longer defines, or a layer the engine no longer
calls, simply records no spans: the layer is reported absent, not an error.
"""

from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path

import numpy as np

CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 7


class Tracer:
    """Flat in-memory span store; span ``i`` is (names[i], starts[i], ends[i], parents[i])."""

    def __init__(self) -> None:
        self.table: list[str] = []
        self._ids: dict[str, int] = {}
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.current = -1
        self.floor_ns = 0.0
        self.leak_ns = 0.0

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        nid = self._ids.setdefault(name, len(self.table))
        if nid == len(self.table):
            self.table.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tracer.current)
            starts.append(0)
            ends.append(0)
            tracer.current = idx
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                tracer.current = parents[idx]

        return traced

    def clear(self) -> None:
        for column in (self.names, self.parents, self.starts, self.ends):
            del column[:]
        self.current = -1

    def calibrate(self) -> None:
        """Measure what a span costs, so that self times can leave it out.

        Wrapping a function that does nothing shows two costs per span: the
        part inside its clock reads (``floor_ns``, counted in the span's own
        duration) and the part outside them (``leak_ns``, counted in the
        parent's self time). Each is the median over CALIBRATION_BATCHES
        batches. The host's speed drifts, so calibrate right before the
        spans it will correct.
        """
        probe = Tracer()

        def nothing():
            return None

        traced = probe.wrap("nothing", nothing)
        floors, leaks = [], []
        clock = time.perf_counter_ns
        calls = CALIBRATION_CALLS
        for _ in range(CALIBRATION_BATCHES):
            probe.clear()
            t0 = clock()
            for _ in range(calls):
                nothing()
            plain = clock() - t0
            t0 = clock()
            for _ in range(calls):
                traced()
            total = clock() - t0
            inside = sum(probe.ends) - sum(probe.starts)
            floors.append(inside / calls)
            leaks.append((total - inside - plain) / calls)
        self.floor_ns = statistics.median(floors)
        self.leak_ns = statistics.median(leaks)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in ns).

        Self time is a span's duration minus the durations of its direct
        children, which is the part of its interval the children do not
        cover, less the measured cost of the span itself and of its
        children's spans.
        """
        if not self.names:
            return {}
        names = np.frombuffer(self.names, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(names))
        children = np.bincount(parents[nested], minlength=len(names))
        own = duration - covered - self.floor_ns - self.leak_ns * children
        calls = np.bincount(names, minlength=len(self.table))
        total = np.bincount(names, weights=own, minlength=len(self.table))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.table) if calls[i]}

    def save(self, path: Path) -> None:
        np.savez(
            path,
            name_table=np.array(self.table),
            name=np.array(self.names),
            start_ns=np.array(self.starts),
            end_ns=np.array(self.ends),
            parent=np.array(self.parents),
        )


class CountingGenerator:
    """Stands in for a ``numpy.random.Generator``: forwards every call, counts calls and variates.

    ``used`` is kept by the caller: the variates it actually consumed.
    """

    def __init__(self) -> None:
        self.target: np.random.Generator | None = None
        self.calls = 0
        self.drawn = 0
        self.used = 0

    def __getattr__(self, name: str):
        method = getattr(self.target, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls += 1
            self.drawn += np.size(out)
            return out

        return counted


class Instrumentation:
    """Context manager that traces hopwar's layers while it is active.

    Besides spans it keeps, per simulated run, the pairing, the slot count,
    the run's ``hops`` and ``detections`` and, where the attacker has one,
    its ``retrains`` counter.
    """

    def __init__(self, engine, cli=None) -> None:
        self.engine = engine
        self.cli = cli
        self.tracer = Tracer()
        self.rng = CountingGenerator()
        self.runs: list[dict] = []
        self._pairing: tuple[str, str] = ("?", "?")
        self._channels = 0
        self._attacker = None
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> Instrumentation:
        engine, wrap = self.engine, self.tracer.wrap
        self._patch(engine, "run_scenario", self._run_scenario)
        self._patch(engine, "resolve_slot", lambda fn: wrap("phy.resolve_slot", fn))
        self._patch(engine, "Defender", self._defender)
        self._patch(engine, "make_attacker", self._make_attacker)
        if self.cli is not None:
            self._patch(self.cli, "load_config", lambda fn: wrap("config.load_config", fn))
            self._patch(self.cli, "run_batch", lambda fn: wrap("engine.run_batch", fn))
            self._patch(self.cli, "emit_summary", lambda fn: wrap("engine.emit_summary", fn))
            self._patch(self.cli, "emit_timeseries", lambda fn: wrap("engine.emit_timeseries", fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, name, original = self._restore.pop()
            setattr(module, name, original)

    def _patch(self, module, name: str, build) -> None:
        original = getattr(module, name, None)
        if original is None:
            return
        self._restore.append((module, name, original))
        setattr(module, name, build(original))

    def _run_scenario(self, fn):
        traced = self.tracer.wrap("engine.run_scenario", fn)

        def run_scenario(config, *args, **kwargs):
            self._pairing = (config.attacker, config.defender)
            self._channels = config.num_channels
            self._attacker = None
            metrics = traced(config, *args, **kwargs)
            self.runs.append(
                {
                    "attacker": config.attacker,
                    "defender": config.defender,
                    "slots": metrics.transmitted,
                    "hops": metrics.hops,
                    "detections": metrics.detections,
                    "retrains": getattr(self._attacker, "retrains", None),
                }
            )
            return metrics

        return run_scenario

    def _defender(self, cls):
        def build(*args, **kwargs):
            defender = cls(*args, **kwargs)
            prefix = f"defender.{self._pairing[1]}"
            for method in ("advance", "record_and_detect"):
                if hasattr(defender, method):
                    setattr(defender, method, self.tracer.wrap(f"{prefix}.{method}", getattr(defender, method)))
            return defender

        return build

    def _make_attacker(self, fn):
        def build(*args, **kwargs):
            attacker = fn(*args, **kwargs)
            self._attacker = attacker
            prefix = f"attacker.{self._pairing[0]}"
            for method in ("step", "observe"):
                setattr(attacker, method, self.tracer.wrap(f"{prefix}.{method}", getattr(attacker, method)))
            sampler = getattr(attacker, "sampler", None)
            if sampler is not None:
                self._wrap_sampler(sampler)
            return attacker

        return build

    def _wrap_sampler(self, sampler) -> None:
        traced_select = self.tracer.wrap("bandit.select_arm", sampler.select_arm)
        counter = self.rng

        def select_arm(rng, *args, **kwargs):
            # A selection uses one posterior sample per arm, one arm per channel.
            counter.target = rng
            counter.used += self._channels
            return traced_select(counter, *args, **kwargs)

        sampler.select_arm = select_arm
        sampler.update = self.tracer.wrap("bandit.update", sampler.update)
