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

``_sweep`` takes ``network.injection_series``'s branch-major load block,
the exact power flow's input too; ``sensitivity`` builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Feeder, LoadSeries, PhaseAssignment, injection_series


@dataclass(frozen=True, eq=False)
class Ld3fState:
    """omega (..., T, n_buses, 3) and flows (..., T, n_branches, 3), per-unit."""

    omega: np.ndarray
    flow_p: np.ndarray  # active flow away from the reference
    flow_q: np.ndarray  # reactive flow


def _sweep(feeder: Feeder, flow: np.ndarray) -> Ld3fState:
    """Accumulate downstream flows, then sweep omega out from the reference.

    flow: (n_branches, 2, ..., T, 3) per-unit (p, q) load (consumption
    positive) at each branch's to-bus, ``injection_series``'s layout, the
    axes between a batch of load sets; it becomes the flows in place.  Three
    passes over the feeder's ``SweepTables``, omega as (bus, ..., T, 3), so
    that each per-branch update is one contiguous block; the fields returned
    are ``np.moveaxis`` views of the two work arrays:

    1. upward: one in-place add per (branch, child) pair, leaves first,
       siblings in order;
    2. drops: A p and B q as one stacked product each, A.T and B.T broadcast
       over the batch axes, so that each (branch, batch index) is one
       (T, 3) @ (3, 3) product, the same kernel call as a single branch's
       ``p @ A.T``.  A (1, 3) @ (3, 3) product per (t, branch) is not: it
       can differ in the last bit;
    3. downward: omega_j = omega_i - A p - B q, root first.

    Every load set in the batch sees the same additions and products in the
    same order, so a batched row is bitwise the sweep of that row alone.
    """
    tables = feeder.sweep_tables()
    for k, child in tables.children:
        flow[k] += flow[child]
    shape = (len(tables.a_t),) + (1,) * (flow.ndim - 4) + (3, 3)
    drop_p = np.matmul(flow[:, 0], tables.a_t.reshape(shape))
    drop_q = np.matmul(flow[:, 1], tables.b_t.reshape(shape))
    omega = np.empty((len(feeder.buses),) + flow.shape[2:])
    omega[feeder.bus_index(feeder.reference_bus)] = 1.0
    for k, i, j in tables.downward:
        omega[j] = omega[i] - drop_p[k] - drop_q[k]
    return Ld3fState(np.moveaxis(omega, 0, -2), *np.moveaxis(flow, 0, -2))


def evaluate_series(feeder: Feeder, assignments: PhaseAssignment | list[PhaseAssignment],
                    loads: LoadSeries) -> Ld3fState:
    """State of one assignment, (T, location, 3) arrays, or of a list of K
    from one sweep, (K, T, location, 3), row k bitwise assignment k's own."""
    flow = injection_series(feeder, assignments, loads)
    return _sweep(feeder, flow[:, :, 0] if isinstance(assignments, PhaseAssignment) else flow)


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
    branch, at = feeder._user_branch, feeder._reconfigurable_at
    demand = loads.demand_of(feeder._user_ids) / feeder.base_power
    # baseline: every non-reconfigurable user at its original phase
    flow0 = np.zeros((len(feeder.branches), 2, loads.horizon, 3))
    for i, u in enumerate(feeder.users):
        if not u.reconfigurable and branch[i] >= 0:
            flow0[branch[i], :, :, feeder._user_phase[i]] += demand[i]
    base = _sweep(feeder, flow0)
    one, ph = np.zeros((len(feeder.branches), 2, len(at), 3, loads.horizon, 3)), np.arange(3)
    on = np.flatnonzero(branch[at] >= 0)[:, None]  # reconfigurable users off the reference
    one[branch[at[on]], :, on, ph, :, ph] = demand[at[on]]
    one = _sweep(feeder, one)
    # increments are relative to the no-load plane omega = 1
    return AffineSensitivity(omega0=base.omega, d_omega=one.omega - 1.0,
                             flow0_p=base.flow_p, flow0_q=base.flow_q,
                             d_flow_p=one.flow_p, d_flow_q=one.flow_q)
