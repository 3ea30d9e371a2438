"""Shared test settings.

Hypothesis runs derandomized, so every run of the suite tries the same
examples, and without a deadline, so a slow moment on a loaded machine
cannot fail an example.
"""

from hypothesis import settings

settings.register_profile("hopwar", derandomize=True, deadline=None)
settings.load_profile("hopwar")
