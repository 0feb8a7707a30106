"""One hypothesis profile for every property test: no per-example deadline
(first calls pay for imports and caches) and no example database.
Hypothesis keeps its other storage, a cache of source constants, in the
default .hypothesis/ directory, which git ignores; a warm cache saves the
first property test of a session about 2 s."""

from hypothesis import settings

settings.register_profile("ringlab", deadline=None, database=None)
settings.load_profile("ringlab")
