"""Test-suite configuration: Hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("awkit", derandomize=True, deadline=None)
settings.load_profile("awkit")
