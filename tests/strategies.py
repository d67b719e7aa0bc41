"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from phasebal.network import Branch, LoadSeries, User, make_feeder


def _impedance(rng):
    m = rng.uniform(0.0, 0.04, (3, 3))
    m = (m + m.T) / 2
    np.fill_diagonal(m, rng.uniform(0.05, 0.3, 3))
    return m


@st.composite
def radial_cases(draw):
    """A random radial feeder (3-8 buses, some branches drawn toward the
    reference), 2-7 users of which some are fixed, T in 1..5, and an rng."""
    n_bus = draw(st.integers(3, 8))
    parents = [draw(st.integers(0, k - 1)) for k in range(1, n_bus)]
    flips = draw(st.lists(st.booleans(), min_size=n_bus - 1, max_size=n_bus - 1))
    fixed = draw(st.lists(st.booleans(), min_size=2, max_size=7))
    horizon = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    buses = [f"b{k}" for k in range(n_bus)]
    branches = []
    for k, (parent, flip) in enumerate(zip(parents, flips), start=1):
        ends = (buses[k], buses[parent]) if flip else (buses[parent], buses[k])
        branches.append(Branch(*ends, _impedance(rng), _impedance(rng)))
    users = [User(f"u{m}", buses[rng.integers(n_bus)], int(rng.integers(1, 4)),
                  reconfigurable=not f) for m, f in enumerate(fixed)]
    feeder = make_feeder(buses, branches, "b0", users, 230.0, 10000.0)
    p = rng.uniform(0.0, 5000.0, (horizon, len(users)))
    loads = LoadSeries(tuple(u.id for u in users), p, p * rng.uniform(0.0, 0.5, p.shape))
    return feeder, loads, rng
