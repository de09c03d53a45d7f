"""Every hypothesis test draws the same examples on every run, with no
deadline: a failure then repeats, and a slow draw on a busy host is no failure."""

from hypothesis import settings

settings.register_profile("oacl", derandomize=True, deadline=None)
settings.load_profile("oacl")
