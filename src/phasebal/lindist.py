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

Because the model is affine in the injections, the map from a one-hot
phase choice matrix to (omega, flows) can be eliminated into a baseline
plus one increment per (user, candidate phase); superposing increments
reproduces a direct evaluation to floating-point accuracy.
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
    """Voltage-drop coefficient matrices (A, B) for one branch, per-unit."""
    r = np.asarray(r_pu, dtype=float)
    x = np.asarray(x_pu, dtype=float)
    a = 2.0 * (GAMMA_RE * r + GAMMA_IM * x)
    b = 2.0 * (GAMMA_RE * x - GAMMA_IM * r)
    return a, b


@dataclass(frozen=True, eq=False)
class Ld3fState:
    """omega (T, n_buses, 3) and per-branch (p, q) flows, all per-unit."""

    omega: np.ndarray
    flow_p: dict  # branch key -> (T, 3) active flow away from the reference
    flow_q: dict  # branch key -> (T, 3) reactive flow


def _sweep(feeder: Feeder, p_bus: np.ndarray, q_bus: np.ndarray) -> Ld3fState:
    """Accumulate downstream flows, then sweep omega out from the reference.

    p_bus, q_bus: (T, n_buses, 3) per-unit load (consumption positive).
    """
    horizon = p_bus.shape[0]
    topo = feeder.topo_branches()
    flow_p = {br.key: None for br in topo}
    flow_q = {br.key: None for br in topo}
    children: dict[str, list] = {b: [] for b in feeder.buses}
    for br in topo:
        children[br.from_bus].append(br)
    for br in reversed(topo):
        j = feeder.bus_index(br.to_bus)
        p = p_bus[:, j, :].copy()
        q = q_bus[:, j, :].copy()
        for child in children[br.to_bus]:
            p += flow_p[child.key]
            q += flow_q[child.key]
        flow_p[br.key] = p
        flow_q[br.key] = q
    omega = np.empty((horizon, len(feeder.buses), 3))
    omega[:, feeder.bus_index(feeder.reference_bus), :] = 1.0
    for br in topo:
        a, b = ab_matrices(feeder.z_pu(br).real, feeder.z_pu(br).imag)
        i = feeder.bus_index(br.from_bus)
        j = feeder.bus_index(br.to_bus)
        omega[:, j, :] = (omega[:, i, :]
                          - flow_p[br.key] @ a.T
                          - flow_q[br.key] @ b.T)
    return Ld3fState(omega=omega, flow_p=flow_p, flow_q=flow_q)


def evaluate_series(feeder: Feeder, assignment: PhaseAssignment,
                    loads: LoadSeries) -> Ld3fState:
    s = injection_series(feeder, assignment, loads) / feeder.base_power
    return _sweep(feeder, s.real, s.imag)


@dataclass(frozen=True, eq=False)
class AffineSensitivity:
    """Affine map from one-hot phase choices to omega and branch flows.

    omega0 has every reconfigurable user detached; d_omega[u, ph] is the
    increment from attaching user u (canonical order) to phase ph+1.
    Flow entries cover ``branch_keys`` only.
    """

    feeder: Feeder
    branch_keys: tuple
    omega0: np.ndarray       # (T, n_buses, 3)
    d_omega: np.ndarray      # (n_pr, 3, T, n_buses, 3)
    flow0_p: np.ndarray      # (n_br, T, 3)
    flow0_q: np.ndarray
    d_flow_p: np.ndarray     # (n_pr, 3, n_br, T, 3)
    d_flow_q: np.ndarray

    def omega_of(self, assignment: PhaseAssignment) -> np.ndarray:
        out = self.omega0.copy()
        for i, ph in enumerate(assignment.phases):
            out += self.d_omega[i, ph - 1]
        return out

    def flows_of(self, assignment: PhaseAssignment) -> tuple[np.ndarray, np.ndarray]:
        p = self.flow0_p.copy()
        q = self.flow0_q.copy()
        for i, ph in enumerate(assignment.phases):
            p += self.d_flow_p[i, ph - 1]
            q += self.d_flow_q[i, ph - 1]
        return p, q


def _single_user_state(feeder: Feeder, user, phase: int,
                       loads: LoadSeries) -> Ld3fState:
    p_bus = np.zeros((loads.horizon, len(feeder.buses), 3))
    q_bus = np.zeros_like(p_bus)
    col = loads.column(user.id)
    b = feeder.bus_index(user.bus)
    p_bus[:, b, phase - 1] = loads.p[:, col] / feeder.base_power
    q_bus[:, b, phase - 1] = loads.q[:, col] / feeder.base_power
    return _sweep(feeder, p_bus, q_bus)


def sensitivity(feeder: Feeder, loads: LoadSeries,
                branch_keys=None) -> AffineSensitivity:
    """Eliminate the linear model into baseline + per-(user, phase) increments.

    branch_keys selects the branches whose flows are tracked; default is
    every branch leaving the reference bus.
    """
    if branch_keys is None:
        branch_keys = tuple(br.key for br in feeder.reference_branches())
    branch_keys = tuple(branch_keys)
    for key in branch_keys:
        feeder.branch(*key)
    pr = feeder.reconfigurable_users()
    # baseline: every non-reconfigurable user at its original phase
    p_bus = np.zeros((loads.horizon, len(feeder.buses), 3))
    q_bus = np.zeros_like(p_bus)
    for u in feeder.users:
        if u.reconfigurable:
            continue
        col = loads.column(u.id)
        b = feeder.bus_index(u.bus)
        p_bus[:, b, u.original_phase - 1] += loads.p[:, col] / feeder.base_power
        q_bus[:, b, u.original_phase - 1] += loads.q[:, col] / feeder.base_power
    base = _sweep(feeder, p_bus, q_bus)
    n_br = len(branch_keys)
    horizon = loads.horizon
    flow0_p = np.stack([base.flow_p[k] for k in branch_keys]) if n_br else \
        np.zeros((0, horizon, 3))
    flow0_q = np.stack([base.flow_q[k] for k in branch_keys]) if n_br else \
        np.zeros((0, horizon, 3))
    d_omega = np.zeros((len(pr), 3, horizon, len(feeder.buses), 3))
    d_flow_p = np.zeros((len(pr), 3, n_br, horizon, 3))
    d_flow_q = np.zeros_like(d_flow_p)
    for i, u in enumerate(pr):
        for ph in (1, 2, 3):
            state = _single_user_state(feeder, u, ph, loads)
            # increments are relative to the no-load plane omega = 1
            d_omega[i, ph - 1] = state.omega - 1.0
            for k, key in enumerate(branch_keys):
                d_flow_p[i, ph - 1, k] = state.flow_p[key]
                d_flow_q[i, ph - 1, k] = state.flow_q[key]
    return AffineSensitivity(feeder=feeder, branch_keys=branch_keys,
                             omega0=base.omega, d_omega=d_omega,
                             flow0_p=flow0_p, flow0_q=flow0_q,
                             d_flow_p=d_flow_p, d_flow_q=d_flow_q)
