"""One hypothesis profile for every property test: no per-example deadline
(first calls pay for imports and caches) and no example database.  The
rest of hypothesis's storage (its cache of source constants, written at
collection) goes to a temporary directory removed when pytest exits, so a
test run leaves no .hypothesis/ behind."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("ringlab", deadline=None, database=None)
settings.load_profile("ringlab")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)
