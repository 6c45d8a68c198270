"""Test-wide settings.

Hypothesis draws its examples from a fixed seed (derandomize), keeps no
example database and sets no deadline, so a property draws the same
examples on every run, however loaded the machine.  Hypothesis still keeps
its own cache under .hypothesis/.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
