"""LinDist3Flow: lossless linear power flow in squared voltage magnitudes.

State per bus is omega = |u|^2 (per-unit, one value per phase), pinned to
1.0 on every phase at the reference bus.  Branch flows carry the plain sum
of downstream injections (no loss terms), and the voltage update along a
branch directed i -> j away from the reference is

    omega_j = omega_i - A_ij p_ij - B_ij q_ij

with A and B built from the 3x3 per-unit resistance and reactance
matrices and the cross-phase rotation matrix Gamma:

    A_ij = 2 (Re(Gamma) o R + Im(Gamma) o X)
    B_ij = 2 (Re(Gamma) o X - Im(Gamma) o R)

where ``o`` is the elementwise product.  Gamma_{ab} approximates the
voltage ratio u_a / u_b for balanced angles, so each impedance entry is
rotated by the phase offset of the pair it couples; a matrix product in
place of the elementwise one would cancel the drop of a balanced load
entirely.  Positive flow moves away from the reference bus.

States are arrays in the exact power flow's layout, buses in
``feeder.buses`` and branches in ``feeder.branches`` order, with any
leading axes as a batch of independent load sets.  The model is affine
in the injections, so the map from a one-hot phase choice matrix to
(omega, flows) can be eliminated into a baseline plus one increment per
(user, candidate phase), all increments from one batched sweep;
superposing increments reproduces a direct evaluation to floating-point
accuracy.

The sweep reads index tables and stacked per-unit impedances that each
``Feeder`` builds once, at construction (``Feeder.sweep_tables``); a call
does no per-branch lookups and derives every branch's A and B in one
vectorized ``ab_matrices`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Feeder, LoadSeries, PhaseAssignment, injection_series

_ALPHA = np.exp(-2j * np.pi / 3)

GAMMA = np.array([[1.0, _ALPHA ** 2, _ALPHA],
                  [_ALPHA, 1.0, _ALPHA ** 2],
                  [_ALPHA ** 2, _ALPHA, 1.0]])

GAMMA_RE = np.real(GAMMA)
GAMMA_IM = np.imag(GAMMA)


def ab_matrices(r_pu: np.ndarray, x_pu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voltage-drop coefficient matrices (A, B) of one branch, per-unit, or
    of a stack of branches given (..., 3, 3) impedances."""
    r = np.asarray(r_pu, dtype=float)
    x = np.asarray(x_pu, dtype=float)
    a = 2.0 * (GAMMA_RE * r + GAMMA_IM * x)
    b = 2.0 * (GAMMA_RE * x - GAMMA_IM * r)
    return a, b


@dataclass(frozen=True, eq=False)
class Ld3fState:
    """omega (..., T, n_buses, 3) and flows (..., T, n_branches, 3), per-unit."""

    omega: np.ndarray
    flow_p: np.ndarray  # active flow away from the reference
    flow_q: np.ndarray  # reactive flow


def _sweep(feeder: Feeder, p_bus: np.ndarray, q_bus: np.ndarray) -> Ld3fState:
    """Accumulate downstream flows, then sweep omega out from the reference.

    p_bus, q_bus: (..., T, n_buses, 3) per-unit load (consumption positive).
    Every load set in the batch sees the same additions in the same order,
    so a batched row is bitwise the sweep of that row alone.
    """
    tables = feeder.sweep_tables()
    a, b = ab_matrices(tables.z_pu.real, tables.z_pu.imag)
    flow_p = np.empty(p_bus.shape[:-2] + (len(feeder.branches), 3))
    flow_q = np.empty_like(flow_p)
    for k, j, children in tables.upward:
        flow_p[..., k, :] = p_bus[..., j, :]
        flow_q[..., k, :] = q_bus[..., j, :]
        for child in children:
            flow_p[..., k, :] += flow_p[..., child, :]
            flow_q[..., k, :] += flow_q[..., child, :]
    omega = np.empty(p_bus.shape)
    omega[..., feeder.bus_index(feeder.reference_bus), :] = 1.0
    for k, i, j in tables.downward:
        omega[..., j, :] = (omega[..., i, :]
                            - flow_p[..., k, :] @ a[k].T
                            - flow_q[..., k, :] @ b[k].T)
    return Ld3fState(omega=omega, flow_p=flow_p, flow_q=flow_q)


def evaluate_series(feeder: Feeder, assignment: PhaseAssignment,
                    loads: LoadSeries) -> Ld3fState:
    s = injection_series(feeder, assignment, loads) / feeder.base_power
    return _sweep(feeder, s.real, s.imag)


@dataclass(frozen=True, eq=False)
class AffineSensitivity:
    """Affine map from one-hot phase choices to omega and branch flows.

    omega0 and flow0_* have every reconfigurable user detached;
    d_omega[u, ph] and d_flow_*[u, ph] are the increments from attaching
    user u (canonical order) to phase ph+1.  Layouts match ``Ld3fState``.
    """

    omega0: np.ndarray       # (T, n_buses, 3)
    d_omega: np.ndarray      # (n_pr, 3, T, n_buses, 3)
    flow0_p: np.ndarray      # (T, n_branches, 3)
    flow0_q: np.ndarray
    d_flow_p: np.ndarray     # (n_pr, 3, T, n_branches, 3)
    d_flow_q: np.ndarray


def sensitivity(feeder: Feeder, loads: LoadSeries) -> AffineSensitivity:
    """Eliminate the linear model into baseline + per-(user, phase) increments.

    One sweep covers the fixed users; one batched sweep covers a stack of
    (n_pr, 3) single-user load sets, user u alone on phase ph+1.
    """
    pr = feeder.reconfigurable_users()
    shape = (loads.horizon, len(feeder.buses), 3)
    # baseline: every non-reconfigurable user at its original phase
    p_bus = np.zeros(shape)
    q_bus = np.zeros(shape)
    for u in feeder.users:
        if u.reconfigurable:
            continue
        col = loads.column(u.id)
        b = feeder.bus_index(u.bus)
        p_bus[:, b, u.original_phase - 1] += loads.p[:, col] / feeder.base_power
        q_bus[:, b, u.original_phase - 1] += loads.q[:, col] / feeder.base_power
    base = _sweep(feeder, p_bus, q_bus)
    p_one = np.zeros((len(pr), 3) + shape)
    q_one = np.zeros_like(p_one)
    ph = np.arange(3)
    for i, u in enumerate(pr):
        col = loads.column(u.id)
        b = feeder.bus_index(u.bus)
        p_one[i, ph, :, b, ph] = loads.p[:, col] / feeder.base_power
        q_one[i, ph, :, b, ph] = loads.q[:, col] / feeder.base_power
    one = _sweep(feeder, p_one, q_one)
    # increments are relative to the no-load plane omega = 1
    return AffineSensitivity(omega0=base.omega, d_omega=one.omega - 1.0,
                             flow0_p=base.flow_p, flow0_q=base.flow_q,
                             d_flow_p=one.flow_p, d_flow_q=one.flow_q)
