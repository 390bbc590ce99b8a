"""Shared test settings: hypothesis runs derandomized, so the suite draws
the same examples on every run, with a bounded example count and no
per-example deadline (the first call of a kernel pays for imports)."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=8, deadline=None,
                          database=None)
settings.load_profile("tier1")
