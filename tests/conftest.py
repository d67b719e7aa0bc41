import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phasebal import fixtures
from phasebal.network import Branch, Feeder, User


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
def unloaded_cable():
    """A feeder whose transformer also feeds a cable (to ``spare``) with no
    user behind it; users sit on ``b1`` and ``b2``."""
    z = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
    zx = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]
    feeder = Feeder(
        buses=["r", "b1", "b2", "spare"],
        branches=[Branch("r", "b1", z, zx), Branch("b1", "b2", z, zx),
                  Branch("r", "spare", z, zx)],
        reference_bus="r",
        users=[User("u1", "b1", 1), User("u2", "b1", 1),
               User("u3", "b2", 1), User("u4", "b2", 2)],
        base_voltage=230.0, base_power=10_000.0)
    loads = fixtures.synthetic_profiles(
        {"u1": 3000.0, "u2": 1500.0, "u3": 2500.0, "u4": 800.0}, horizon=6, seed=4)
    return feeder, loads


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
