"""Shared pytest settings: one deterministic hypothesis profile for every property test."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized with no example database: every run draws the same examples.
# No deadline, since timings vary by host.
settings.register_profile("hawkchan", derandomize=True, database=None, deadline=None)
settings.load_profile("hawkchan")

# Hypothesis still caches the constants it reads from the source; keep that
# cache in a directory removed at exit, so a test run leaves no .hypothesis/.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
