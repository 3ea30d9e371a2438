"""Shared test settings.

Hypothesis runs derandomized, so every run of the suite tries the same
examples, and without a deadline, so a slow moment on a loaded machine
cannot fail an example.

Every test starts on the process's own core mask. ``run_batch`` restores the
mask it read, and a test that fakes ``os.sched_getaffinity`` makes that a
fake one, which on a host with more cores would narrow the tests after it.
"""

import os

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
