"""Shared test settings.

Hypothesis runs derandomized, so every run of the suite tries the same
examples, and without a deadline, so a slow moment on a loaded machine
cannot fail an example.

Every test starts on the process's own core mask. ``run_batch`` restores the
mask it read, and a test that fakes ``os.sched_getaffinity`` makes that a
fake one, which on a host with more cores would narrow the tests after it.

``counting_rng`` is a seeded generator that counts the calls made on it, so
a test can check that a strategy draws only from the generator it was built
with.

``pin_note`` is the message of a golden-file mismatch: it names the numpy
that is running and the one the CI workflow installs, under which the pins
were made.
"""

import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("hopwar", derandomize=True, deadline=None)
settings.load_profile("hopwar")


@pytest.fixture(autouse=True)
def own_core_mask():
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, mask)


class CountingGenerator:
    """A seeded generator that counts the calls made on it, by method name."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def counting_rng():
    return CountingGenerator(9)


@pytest.fixture(scope="session")
def pin_note():
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    pinned = re.search(r"numpy==([\w.]+)", workflow.read_text()) if workflow.is_file() else None
    release = f"numpy {pinned.group(1)}, " if pinned else ""
    return (
        f"running numpy {np.__version__}; the golden files were made under {release}the release "
        ".github/workflows/tests.yml installs, and numpy does not promise the same Generator streams across releases"
    )
