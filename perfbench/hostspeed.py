"""How fast the host runs: a fixed reference loop, and the hypervisor's steal.

The benchmark shares a few cores of a host whose speed drifts: under other
load on the machine, the same round of simulations takes anywhere from 1 to
1.7 times its quickest wall time, in spells of seconds to minutes. Two
things drift. The hypervisor takes the virtual CPUs away for a while (the
``steal`` column of ``/proc/stat``), which lengthens wall time but not the
process's CPU time; and the physical cores run slower, which lengthens both.
The benchmark reads the steal counter around each unit of program work and
runs a reference loop right after it: the loop's CPU time over its nominal
time is how much slower the cores ran then. A change to hopwar moves the
adjusted times as it moves the raw ones; a spell of load on the host moves
them much less.

The loop is a miniature of hopwar's slot loop, written here so that no
change to hopwar moves it: a hopping transmitter, a Thompson-sampling jammer
with a per-arm cache of posterior samples, and a small frozen dataclass per
slot. It makes the kinds of calls hopwar makes most: method calls, scalar
and block draws from a numpy ``Generator``, list updates and branches in
the interpreter.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

SLOTS = 6_000
NUM_CHANNELS = 12
# CPU time of one reference_loop() taken as nominal core speed: a round
# figure within 20% of its median on the machine the README's figures come
# from. It only sets the scale of the adjusted figures, which are comparable
# only between runs on the same machine anyway.
NOMINAL_CPU_S = 0.065


@dataclasses.dataclass(frozen=True)
class _Outcome:
    delivered: bool
    jammed: bool


class _Hopper:
    def __init__(self) -> None:
        self.channel = 0

    def advance(self, rng: np.random.Generator) -> None:
        if rng.random() < 0.05:
            self.channel = int(rng.integers(NUM_CHANNELS))


class _Sampler:
    def __init__(self) -> None:
        self.alpha = [1.0] * NUM_CHANNELS
        self.beta = [1.0] * NUM_CHANNELS
        self.cache: list[list[float]] = [[] for _ in range(NUM_CHANNELS)]

    def select(self, rng: np.random.Generator) -> int:
        best, best_value = 0, -1.0
        for arm in range(NUM_CHANNELS):
            cached = self.cache[arm]
            if not cached:
                cached.extend(rng.beta(self.alpha[arm], self.beta[arm], size=8).tolist())
            value = cached.pop()
            if value > best_value:
                best, best_value = arm, value
        return best

    def update(self, arm: int, reward: bool) -> None:
        if reward:
            self.alpha[arm] += 1.0
        else:
            self.beta[arm] += 1.0
        self.cache[arm].clear()


def reference_loop() -> int:
    """Simulate SLOTS slots of the miniature duel; return the jam count."""
    rng = np.random.default_rng(12345)
    hopper, sampler = _Hopper(), _Sampler()
    jams = 0
    for _ in range(SLOTS):
        hopper.advance(rng)
        arm = sampler.select(rng)
        outcome = _Outcome(delivered=arm != hopper.channel, jammed=arm == hopper.channel)
        sampler.update(arm, outcome.jammed)
        jams += outcome.jammed
    return jams


def reference_cpu_seconds() -> float:
    """CPU seconds of one ``reference_loop()``."""
    cpu0 = time.process_time()
    reference_loop()
    return time.process_time() - cpu0


def steal_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs since boot.

    The ``steal`` column of ``/proc/stat``; 0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
