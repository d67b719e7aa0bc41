"""Imbalance metrics and the one definition of the scalar score.

Voltage metrics (PVUR and its squared-magnitude proxy) are evaluated at
balance buses and reduced to the worst bus per timestep; flow metrics (I_U,
P_U and the quadratic proxy) at balance branches and reduced to their mean.
``per_timestep`` is that reduction, NaN where a location is undefined;
``aggregate`` averages its defined timesteps.  Planning and validation both
score through these two.  All metrics return percent.

Each formula has one implementation over the last axis (the phases),
broadcast over leading axes such as (T, locations); a single 3-vector
gives a 0-d result, any other last-axis length a ``ValidationError``.
``_phase_sum`` and ``_phase_max`` reduce the phases in three terms, bit
for bit numpy's left-to-right ufunc reductions from +0.0 but for the sign
of an all-zero sum, and a NaN's sign and payload, which no metric shows
(abs, squares and the NaN mask drop the sign; only ``np.isnan`` reads a
NaN).  ``ObjectiveSpec.sites`` resolves the locations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MetricError, ValidationError
from .network import Feeder, LoadSeries, downstream_users

VOLTAGE_METRICS = ("pvur", "pvur_star")
FLOW_METRICS = ("iu", "pu", "pu_star")
ALL_METRICS = VOLTAGE_METRICS + FLOW_METRICS

# timesteps whose phase-mean flow is closer to zero than this are skipped
# by the flow-metric aggregation (reverse flows can cancel the mean)
ZERO_MEAN_PU = 1e-6


def _phases(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValidationError(f"phase values need a last axis of 3, got shape {a.shape}")
    return a


def _phase_sum(x: np.ndarray) -> np.ndarray:  # np.add.reduce(x, axis=-1); see above
    return x[..., 0] + x[..., 1] + x[..., 2]


def _phase_max(x: np.ndarray) -> np.ndarray:  # np.maximum.reduce(x, axis=-1); see above
    return np.maximum(np.maximum(x[..., 0], x[..., 1]), x[..., 2])


def _phase_mean(x: np.ndarray) -> np.ndarray:  # x.mean(axis=-1, keepdims=True); see above
    return _phase_sum(x)[..., None] / 3


def pvur_values(u_mags) -> np.ndarray:
    """Phase voltage unbalance rate: worst relative deviation from the mean."""
    m = _phases(u_mags)
    if np.any(m <= 0.0):
        raise MetricError(f"pvur needs positive magnitudes, got minimum {m.min():g}")
    return _phase_max(np.abs(1.0 - m / _phase_mean(m))) * 100.0


def pvur_star_values(omega) -> np.ndarray:
    """Proxy on squared magnitudes; unit-mean normalization dropped."""
    w = _phases(omega)
    return _phase_max(np.abs(w - _phase_mean(w))) * 100.0


def unbalance_rate_values(values) -> np.ndarray:
    """Unbalance rate of current magnitudes (I_U) or signed active flows
    (P_U); NaN where the phase mean is (near) zero."""
    v = _phases(values)
    mean = _phase_mean(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = _phase_max(np.abs(1.0 - v / mean)) * 100.0
    return np.where(np.abs(mean[..., 0]) < ZERO_MEAN_PU, np.nan, rate)


def p_u_star_values(p_flows, denom) -> np.ndarray:
    """Quadratic cyclic-difference proxy, normalized by the estimated
    per-phase mean flow ``denom``; NaN where ``denom`` is not positive."""
    p, d = _phases(p_flows), np.asarray(denom, dtype=float)
    p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2]  # pairs (1,2), (2,3), (3,1)
    d2 = np.where(d > 0.0, d ** 2, np.nan)  # x / NaN is NaN and raises no warning
    return ((p1 - p2) ** 2 + (p2 - p3) ** 2 + (p3 - p1) ** 2) / d2 * 100.0


def denominator(feeder: Feeder, loads: LoadSeries, branch) -> float:
    """Estimated mean active flow per phase at a branch: one third of the
    summed time-mean downstream demand, per-unit."""
    users = downstream_users(feeder, branch)
    total = 0.0
    for u in feeder.users:  # a fixed order: the set's order depends on the hash seed
        if u.id in users:
            total += float(loads.mean_p[loads.column(u.id)])
    total /= feeder.base_power
    if total <= 0.0:
        raise MetricError(f"branch {branch.key}: zero downstream demand")
    return total / 3.0


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which metric to minimize and where it is measured.

    balance_buses defaults to the user buses, balance_branches to the
    reference branches that feed a user; a branch is a (from_bus, to_bus)
    pair.  Names the feeder lacks raise ``ValidationError``.
    """

    metric: str
    balance_buses: tuple | None = None
    balance_branches: tuple | None = None

    def __post_init__(self):
        if self.metric not in ALL_METRICS:
            raise ValidationError(
                f"unknown metric {self.metric!r}; pick one of {ALL_METRICS}")
        if self.balance_buses is not None:
            object.__setattr__(self, "balance_buses", tuple(self.balance_buses))
        if self.balance_branches is not None:
            keys = tuple(self.balance_branches)
            if not all(isinstance(k, (tuple, list)) and len(k) == 2 for k in keys):
                raise ValidationError(
                    f"balance branches must be (from_bus, to_bus) pairs: {keys!r}")
            object.__setattr__(self, "balance_branches", tuple(map(tuple, keys)))

    @property
    def is_voltage_metric(self) -> bool:
        return self.metric in VOLTAGE_METRICS

    def buses_for(self, feeder: Feeder) -> tuple[str, ...]:
        if self.balance_buses is not None:
            if not self.balance_buses:
                raise ValidationError("balance bus set is empty")
            return self.balance_buses
        buses = tuple(dict.fromkeys(u.bus for u in feeder.users))
        if not buses:
            raise ValidationError("feeder has no users to balance at")
        return buses

    def branches_for(self, feeder: Feeder) -> tuple:
        if self.balance_branches is not None:
            if not self.balance_branches:
                raise ValidationError("balance branch set is empty")
            return tuple(feeder.branch(*k) for k in self.balance_branches)
        branches = tuple(br for br in feeder.reference_branches() if downstream_users(feeder, br))
        if not branches:
            raise MetricError("no branch from the reference bus feeds a user")
        return branches

    def sites(self, feeder: Feeder, loads: LoadSeries) -> Sites:
        """Where the metric is measured, with pu_star's denominators: the
        one caller of ``buses_for``, ``branches_for`` and ``denominator``."""
        if self.is_voltage_metric:
            buses = self.buses_for(feeder)
            return Sites(np.array([feeder.bus_index(b) for b in buses], dtype=int), buses)
        branches = self.branches_for(feeder)
        denom = (np.array([denominator(feeder, loads, br) for br in branches])
                 if self.metric == "pu_star" else None)
        return Sites(np.array([feeder.branch_index(br) for br in branches], dtype=int),
                     tuple(br.key for br in branches), denom)


class Sites(NamedTuple):
    """``index`` into ``feeder.buses`` (voltage metrics) or
    ``feeder.branches``, ``names`` for messages, pu_star's ``denom``."""

    index: np.ndarray
    names: tuple
    denom: np.ndarray | None = None


def per_timestep(spec: ObjectiveSpec, values: np.ndarray) -> np.ndarray:
    """(T,) worst location (voltage metrics) or location mean (flow metrics)
    of the (n_locations, T) ``values``; NaN wherever a location is NaN."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] == 0:
        raise ValidationError(f"metric values must be (locations, T), got {vals.shape}")
    return (np.maximum.reduce(vals, axis=0) if spec.is_voltage_metric
            else np.add.reduce(vals, axis=0) / len(vals))


def aggregate(spec: ObjectiveSpec, values: np.ndarray) -> float:
    """The scalar objective: the time mean of ``per_timestep`` over its
    defined timesteps; dropping one warns, dropping all raises."""
    per_t = per_timestep(spec, values)
    undefined = np.isnan(per_t)
    if undefined.any():
        warnings.warn(
            f"skipping {int(undefined.sum())} of {len(per_t)} timesteps with "
            f"undefined flow metric (near-zero phase mean)", stacklevel=2)
        per_t = per_t[~undefined]
        if len(per_t) == 0:
            raise MetricError("metric undefined at every timestep")
    return float(np.add.reduce(per_t) / len(per_t))
