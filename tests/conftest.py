"""Hypothesis runs the same examples on every run, and keeps no example database.

Property tests keep their own max_examples; the profile only fixes how the
examples are drawn, so a tier-1 run is repeatable and writes nothing.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
