"""Configuration shared by every test module.

One hypothesis profile, loaded before any test module is imported, so a
module run alone uses the same settings as the full run.  Property tests
run derandomized: hypothesis derives the example sequence from the test
body itself, so runs are reproducible across runs and machines without
an external seed.
"""
from hypothesis import settings

settings.register_profile("suite", derandomize=True, max_examples=60)
settings.load_profile("suite")
