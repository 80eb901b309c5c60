import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from cayleyball import all_pairs_distances, build_ball, parse_group_spec

# Every run draws the same examples and keeps no example database on disk.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
# Hypothesis still caches the constants it reads from the sources under test;
# keep that cache in a directory removed at exit, not in the working tree.
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture(scope="session")
def make_pair():
    """Session cache of (ball, dist) pairs keyed by group text and radius."""
    cache = {}

    def _make(text, r_in, generators=None):
        key = (text, r_in, tuple(generators) if generators else None)
        if key not in cache:
            ball = build_ball(parse_group_spec(text), r_in, generators=generators)
            cache[key] = (ball, all_pairs_distances(ball))
        return cache[key]

    return _make
