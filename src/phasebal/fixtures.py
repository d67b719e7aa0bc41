"""Bundled desk-scale fixtures.

Three synthetic feeders used by the test-suite, the experiment scripts and
the documentation examples:

* ``two_bus``: reference plus one load bus carrying three users.
* ``line``: a four-bus line with one user per load bus, all starting on
  phase 1.
* ``twenty_user``: a trunk with three laterals, 20 users of mixed size
  with most of the heavy demand initially on phase 1.

External datasets (ENWL networks, NREL profiles) are licensed separately
and are ingested by path; nothing here is derived from them.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .network import Branch, Feeder, LoadSeries, User, save_feeder, save_profiles

FIXTURE_NAMES = ("two_bus", "line", "twenty_user")


def _zmat(diag: complex, mutual: complex) -> tuple[list, list]:
    z = np.full((3, 3), mutual, dtype=complex)
    np.fill_diagonal(z, diag)
    return z.real.tolist(), z.imag.tolist()


def _daily_shape(t: np.ndarray, steps_per_day: int) -> np.ndarray:
    """Morning and evening demand bumps on top of a base level, in [0, 1]."""
    h = (t % steps_per_day) / steps_per_day * 24.0
    morning = np.exp(-0.5 * ((h - 8.0) / 2.0) ** 2)
    evening = np.exp(-0.5 * ((h - 19.0) / 2.5) ** 2)
    return 0.45 + 0.25 * morning + 0.55 * evening


def synthetic_profiles(user_base_w: dict[str, float], horizon: int,
                       seed: int, power_factor: float = 0.95,
                       steps_per_day: int = 24,
                       resolution_s: float = 3600.0) -> LoadSeries:
    """Deterministic demand series: daily shape times per-user jitter."""
    rng = np.random.default_rng(seed)
    t = np.arange(horizon)
    user_ids = tuple(user_base_w)
    p = np.empty((horizon, len(user_ids)))
    for j, uid in enumerate(user_ids):
        jitter = rng.lognormal(mean=0.0, sigma=0.18, size=horizon)
        shift = rng.uniform(-2.0, 2.0)
        shape = _daily_shape(t - shift, steps_per_day)
        p[:, j] = user_base_w[uid] * (0.4 + 0.6 * shape) * jitter
    tan_phi = math.tan(math.acos(power_factor))
    return LoadSeries(user_ids, p, p * tan_phi, resolution_s)


# -- two_bus -----------------------------------------------------------------


def two_bus_feeder() -> Feeder:
    r, x = _zmat(0.10 + 0.06j, 0.03 + 0.02j)
    return Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", r, x, ampacity_a=80.0,
                         power_limit_va=15_000.0)],
        reference_bus="r",
        users=[User("u1", "b1", 1), User("u2", "b1", 1), User("u3", "b1", 1)],
        base_voltage=230.0,
        base_power=10_000.0,
    )


def two_bus_profiles(horizon: int = 4) -> LoadSeries:
    ids = ("u1", "u2", "u3")
    p = np.full((horizon, 3), 1000.0)
    return LoadSeries(ids, p, np.zeros_like(p), resolution_s=3600.0)


# -- line --------------------------------------------------------------------


def line_feeder() -> Feeder:
    r, x = _zmat(0.09 + 0.055j, 0.030 + 0.020j)
    seg = dict(ampacity_a=90.0, power_limit_va=18_000.0)
    return Feeder(
        buses=["r", "b1", "b2", "b3"],
        branches=[Branch("r", "b1", r, x, **seg),
                  Branch("b1", "b2", r, x, **seg),
                  Branch("b2", "b3", r, x, **seg)],
        reference_bus="r",
        users=[User("u1", "b1", 1), User("u2", "b2", 1), User("u3", "b3", 1)],
        base_voltage=230.0,
        base_power=10_000.0,
    )


def line_profiles(horizon: int = 24, seed: int = 11) -> LoadSeries:
    base = {"u1": 900.0, "u2": 1600.0, "u3": 2400.0}
    return synthetic_profiles(base, horizon, seed)


# -- twenty_user ---------------------------------------------------------------

# (bus, original phase, mean demand in W); heavy users sit on phase 1
_TWENTY_USERS = [
    ("u01", "a1", 1, 3800.0),
    ("u02", "a2", 2, 900.0),
    ("u03", "a2", 3, 1100.0),
    ("u04", "a3", 1, 4200.0),
    ("u05", "a3", 2, 800.0),
    ("u06", "b1", 3, 1300.0),
    ("u07", "b1", 1, 1000.0),
    ("u08", "b2", 2, 1500.0),
    ("u09", "b2", 1, 3500.0),
    ("u10", "b3", 3, 900.0),
    ("u11", "b3", 2, 1200.0),
    ("u12", "c1", 1, 1100.0),
    ("u13", "c1", 3, 1000.0),
    ("u14", "c2", 1, 4600.0),
    ("u15", "c2", 2, 700.0),
    ("u16", "c3", 3, 1400.0),
    ("u17", "c3", 2, 1000.0),
    ("u18", "t1", 1, 800.0),
    ("u19", "t2", 2, 1200.0),
    ("u20", "t3", 3, 900.0),
]


def twenty_user_feeder() -> Feeder:
    trunk_r, trunk_x = _zmat(0.05 + 0.04j, 0.010 + 0.008j)
    lat_r, lat_x = _zmat(0.13 + 0.07j, 0.018 + 0.012j)
    trunk = dict(ampacity_a=160.0, power_limit_va=30_000.0)
    lat = dict(ampacity_a=80.0, power_limit_va=15_000.0)
    branches = [Branch(a, b, trunk_r, trunk_x, **trunk)
                for a, b in (("r", "t1"), ("t1", "t2"), ("t2", "t3"))]
    for lateral, root in (("a", "t1"), ("b", "t2"), ("c", "t3")):  # root-x1-x2-x3
        chain = [root] + [f"{lateral}{i}" for i in (1, 2, 3)]
        branches += [Branch(a, b, lat_r, lat_x, **lat) for a, b in zip(chain, chain[1:])]
    users = [User(uid, bus, phase) for uid, bus, phase, _ in _TWENTY_USERS]
    buses = ["r", "t1", "t2", "t3", "a1", "a2", "a3",
             "b1", "b2", "b3", "c1", "c2", "c3"]
    return Feeder(buses, branches, "r", users,
                  base_voltage=230.0, base_power=10_000.0)


def twenty_user_profiles(horizon: int = 24, seed: int = 7) -> LoadSeries:
    base = {uid: watts for uid, _, _, watts in _TWENTY_USERS}
    return synthetic_profiles(base, horizon, seed)


_BUILDERS = {
    "two_bus": (two_bus_feeder, two_bus_profiles),
    "line": (line_feeder, line_profiles),
    "twenty_user": (twenty_user_feeder, twenty_user_profiles),
}


def fixture(name: str) -> tuple[Feeder, LoadSeries]:
    feeder_fn, profile_fn = _BUILDERS[name]
    return feeder_fn(), profile_fn()


def write_fixture(name: str, out_dir) -> tuple[str, str]:
    """Materialize a fixture as <name>.feeder.json and <name>.profiles.csv."""
    feeder, loads = fixture(name)
    os.makedirs(out_dir, exist_ok=True)
    fpath = os.path.join(out_dir, f"{name}.feeder.json")
    ppath = os.path.join(out_dir, f"{name}.profiles.csv")
    save_feeder(feeder, fpath)
    save_profiles(loads, ppath)
    return fpath, ppath
