"""The determinism policy of every hypothesis property test, written once."""

from hypothesis import settings

# Examples derive from each test itself, no example database is read or
# written, and no example is timed out, so every run draws the same examples
# and gives the same verdict.  A test's own @settings sets only its example
# count and health checks.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
