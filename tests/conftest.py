import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phasebal import fixtures


@pytest.fixture(scope="session")
def two_bus():
    return fixtures.fixture("two_bus")


@pytest.fixture(scope="session")
def line():
    return fixtures.fixture("line")


@pytest.fixture(scope="session")
def collapsing_line(line):
    """The line fixture with step 5's demand far past loadability."""
    feeder, loads = line
    p, q = loads.p.copy(), loads.q.copy()
    p[5], q[5] = 1.0e6, 0.0
    return feeder, fixtures.LoadSeries(loads.user_ids, p, q, loads.resolution_s)


@pytest.fixture(scope="session")
def twenty_user():
    return fixtures.fixture("twenty_user")


@pytest.fixture(scope="session")
def fixture_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name in fixtures.FIXTURE_NAMES:
        paths[name] = fixtures.write_fixture(name, out)
    return paths
