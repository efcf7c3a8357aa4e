"""Hypothesis runs the same examples on every run: derandomized, and no
per-example deadline, since wall time on a shared host drifts."""

from hypothesis import settings

settings.register_profile("unclonelab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("unclonelab")
