"""Exact three-wire unbalanced power flow by fixed-point current injection.

Voltages are per-unit, line-to-neutral, with the reference bus pinned to
the balanced set u_ref (1 at 0 deg, 1 at -120 deg, 1 at +120 deg).  Each
iteration turns the net injections s into currents conj(w), w = s / u, at
the present voltages and solves the reduced nodal admittance system by one
product with the tree-built reduced Z-bus, u' = u_ref + Z conj(w), u_ref
tiled over the non-reference buses.  As Y_nn Z = I and a flat feeder
carries no current (Y_nn u_ref + Y_nr u_ref = 0), Y_nn u' + Y_nr u_ref =
conj(w): the new iterate's power mismatch is w (u' - u) and needs no Y-bus
product (the Z-bus fixed point's identity; Bazrafshan and Gatsis, IEEE
Trans. Power Syst. 2018).  A step converges once its infinity norm is at
most the tolerance.

A series is the only entry point; one timestep is a one-step window
(``LoadSeries.slice_window``).  All timesteps of a series are solved as
one time-major block, one row per active step; a step leaves it, and is
written out, once converged or flagged as collapsed, so it takes the
iterations of an independent solve.  K assignments (the GA's chunks)
stack into K * T rows, candidate k's at ``series[k * T:(k + 1) * T]``.
The loads are ``network.injection_series``'s per-unit branch-major block,
the linear model's input too, gathered once into the reduced injections.
A step's result must not depend on the block's width, other rows or
thread count.  A whole-block BLAS ``@`` picks its kernel and summation
order by the block's shape, and OpenBLAS splits a large product over its
threads, so ``_row_products`` multiplies each row on its own, in fixed
36-wide tiles of both axes, against the transpose of Z built once per
feeder (``Feeder.pf_tables``); every other term is elementwise within its
row.  A row's bits depend only on the BLAS kernel (OpenBLAS
``DYNAMIC_ARCH`` picks one per CPU); every bundled fixture has n <= 36
(3 per non-reference bus), one tile.  No ``lu_solve`` runs in the loop,
so worker threads share no pivot array.  Complex products are written
out of place, ``np.multiply``: in the operator form numpy reuses a
temporary operand as the output once it reaches 256 KiB, and that
in-place product rounds differently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MetricError, ValidationError
from .network import (REFERENCE_PHASORS, Feeder, LoadSeries, PFTables, PhaseAssignment,
                      injection_series)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# |u| below this is treated as voltage collapse rather than a slow iterate
_COLLAPSE_PU = 0.05
_TILE = 36  # row-product tile width: OpenBLAS runs a 36-wide tile on one thread


@dataclass(frozen=True, eq=False)
class PFSolution:
    """Converged (or flagged) state for one timestep, everything per-unit;
    branch arrays follow ``feeder.branches`` order."""

    u: np.ndarray                 # (n_buses, 3) complex voltages
    s_from: np.ndarray            # (n_branches, 3) power leaving the from bus
    s_to: np.ndarray              # (n_branches, 3) power leaving the to bus
    current: np.ndarray           # (n_branches, 3) current from -> to
    converged: bool
    iterations: int
    max_mismatch: float


@dataclass(frozen=True, eq=False)
class PFSeries(Sequence):
    """PFSolution fields stacked on a leading T axis; indexing yields the
    PFSolution of one timestep, a slice a shorter series."""

    u: np.ndarray
    s_from: np.ndarray
    s_to: np.ndarray
    current: np.ndarray
    converged: np.ndarray         # (T,) bool
    iterations: np.ndarray        # (T,) int
    max_mismatch: np.ndarray      # (T,) float
    collapsed: np.ndarray         # (T,) bool, a subset of ~converged

    def __len__(self) -> int:
        return self.u.shape[0]

    def __getitem__(self, t):
        arrays = (self.u[t], self.s_from[t], self.s_to[t], self.current[t])
        if isinstance(t, slice):
            return PFSeries(*arrays, self.converged[t], self.iterations[t],
                            self.max_mismatch[t], self.collapsed[t])
        return PFSolution(*arrays, bool(self.converged[t]), int(self.iterations[t]),
                          float(self.max_mismatch[t]))

    def check_collapse(self) -> PFSeries:
        """This series; raises ConvergenceError if any step collapsed."""
        if self.collapsed.any():
            n = self.iterations[np.argmax(self.collapsed)]
            raise ConvergenceError(
                f"voltage collapsed below {_COLLAPSE_PU} pu after {n} iterations")
        return self


def _row_products(x: np.ndarray, m_t: np.ndarray) -> np.ndarray:
    """``x @ m_t`` in ``_TILE``-wide tiles: each output tile of a row sums
    its contraction tiles' products in order, starting from the first (so
    -0.0 keeps its sign), and no bit depends on other rows or on BLAS
    threads.  n <= ``_TILE`` is one (1, n) @ (n, n) product per row."""
    x, out = x[:, None, :], np.empty((len(x), 1, len(m_t)), dtype=complex)
    for c in range(0, len(m_t), _TILE):
        tile = out[..., c:c + _TILE]  # written in place: no fresh block per tile
        np.matmul(x[..., :_TILE], m_t[:_TILE, c:c + _TILE], out=tile)
        for r in range(_TILE, len(m_t), _TILE):
            tile += np.matmul(x[..., r:r + _TILE], m_t[r:r + _TILE, c:c + _TILE])
    return out[:, 0]


def _injections(pf: PFTables, flow: np.ndarray) -> np.ndarray:
    """Complex (K * T, n) net injections, C order (unit-stride rows, as BLAS
    takes them uncopied): each reduced (bus, phase) entry gathers its branch's
    (p, q) rows through ``pf.load_at``, negated, as loads consume."""
    load = flow[pf.load_at[0], :, :, :, pf.load_at[1]].reshape(len(pf.other), 2, -1)
    sa = np.empty((load.shape[2], len(pf.other)), dtype=complex)
    np.negative(load[:, 0].T, out=sa.real)
    np.negative(load[:, 1].T, out=sa.imag)
    return sa


def _solve_block(feeder: Feeder, flow: np.ndarray, tol: float, max_iter: int) -> PFSeries:
    """Solve each (candidate, timestep) of ``injection_series``'s (n_branches,
    2, K, T, 3) block as one row, its injections gathered by ``_injections``."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    sa = _injections(feeder.pf_tables, flow)
    pf, horizon, n_buses = feeder.pf_tables, len(sa), len(feeder.buses)
    u = np.tile(REFERENCE_PHASORS, (horizon, n_buses))
    ua = np.ascontiguousarray(u[:, pf.other])
    converged, iterations = np.zeros(horizon, dtype=bool), np.zeros(horizon, dtype=int)
    collapsed = np.zeros(horizon, dtype=bool)
    mismatch, idx = np.full(horizon, np.inf), np.arange(horizon)
    for it in range(1, max_iter + 1):
        w = sa / ua
        ua, u_old = _row_products(np.conj(w), pf.z_nn_t), ua
        ua += pf.u_ref  # u' = u_ref + Z conj(w), in place: no fresh block to fault in
        iterations[idx], mismatch[idx] = it, np.max(np.abs(np.multiply(w, ua - u_old)), axis=1)
        done = mismatch[idx] <= tol
        # a collapsed iterate is caught before the next iteration starts from it
        down = ~done & (np.abs(ua) < _COLLAPSE_PU).any(axis=1) & (it < max_iter)
        leave = done | down
        if leave.any():
            converged[idx[done]], collapsed[idx[down]] = True, True
            u[np.ix_(idx[leave], pf.other)] = ua[leave]
            idx, ua, sa = idx[~leave], ua[~leave], sa[~leave]
            if idx.size == 0:
                break
    u[np.ix_(idx, pf.other)] = ua
    u = u.reshape(horizon, n_buses, 3)
    ui, uj = u[:, pf.from_bus], u[:, feeder.sweep_tables().to_bus]
    current = np.einsum("kab,tkb->tka", pf.y_branch, ui - uj)
    return PFSeries(u, np.multiply(ui, np.conj(current)), np.multiply(uj, np.conj(-current)),
                    current, converged, iterations, mismatch, collapsed)


def solve_series(feeder: Feeder,
                 assignments: PhaseAssignment | Sequence[PhaseAssignment],
                 loads: LoadSeries, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> PFSeries:
    """Independent flat-start solves of every timestep of each assignment,
    as one block of K * T rows, candidate-major; one assignment is a batch
    of one."""
    return _solve_block(feeder, injection_series(feeder, assignments, loads),
                        tol, max_iter)


def losses(sol: PFSolution | PFSeries, feeder: Feeder):
    """Series losses as a percentage of the active power entering at the
    reference bus: a float for one PFSolution, a (T,) array for a PFSeries."""
    if not np.all(sol.converged):
        raise ConvergenceError("losses require a converged solution")
    loss = np.sum(np.real(sol.s_from + sol.s_to), axis=(-2, -1))
    ref = [feeder.branch_index(br) for br in feeder.reference_branches()]
    p_ref = np.sum(np.real(sol.s_from[..., ref, :]), axis=(-2, -1))
    idle = np.abs(p_ref) < 1e-12
    if np.any(idle & (np.abs(loss) >= 1e-12)):
        raise MetricError("loss fraction undefined: zero reference injection")
    percent = np.where(idle, 0.0, 100.0 * loss / np.where(idle, 1.0, p_ref))
    return float(percent) if percent.ndim == 0 else percent
