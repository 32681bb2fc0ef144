"""Shared test settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run of the suite checks the same cases; no deadline,
so a slow shared host cannot fail a property on time alone.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
