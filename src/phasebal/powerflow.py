"""Exact three-wire unbalanced power flow by fixed-point current injection.

Voltages are per-unit, line-to-neutral, with the reference bus pinned to
the balanced set (1 at 0 deg, 1 at -120 deg, 1 at +120 deg).  Each
iteration turns the net injections s into currents conj(w), w = s / u,
at the present voltages and solves the reduced nodal admittance system by
one reduced Z-bus product, u' = Z (conj(w) - slack).  As Y u' + slack =
conj(w), the new iterate's power mismatch u' conj(Y u' + slack) - s is
w (u' - u) and needs no Y-bus product (the Z-bus fixed point's identity;
Bazrafshan and Gatsis, IEEE Trans. Power Syst. 2018).  A step converges
once its infinity norm is at most the tolerance.

A series is the only entry point; one timestep is a one-step window
(``LoadSeries.slice_window``).  All timesteps of a series are solved as
one time-major block, one row per active step; a step leaves it, and is
written out, once converged or flagged as collapsed, so it takes the
iterations of an independent solve.  K assignments (the GA's chunks)
stack into K * T rows, candidate k's at ``series[k * T:(k + 1) * T]``.
A step's result must not depend on the block's width or other rows.  A
whole-block BLAS ``@`` picks its kernel and summation order by the
block's shape, so each row is multiplied on its own (``_row_products``):
one (1, n) @ (n, n) product of the same shape at any width, against the
contiguous transpose of Z built once per feeder (``Feeder.pf_tables``);
every other term is elementwise within its row.  A row's bits depend on
the BLAS kernel (OpenBLAS ``DYNAMIC_ARCH`` picks one per CPU), not on the
block.  From n of about 64 (3 per non-reference bus: about 22 buses)
OpenBLAS splits each row product over its threads, so the bits also
depend on ``OPENBLAS_NUM_THREADS`` and every row pays a thread hand-off;
every bundled fixture has n <= 36.  No ``lu_solve`` runs in the loop,
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
from .network import (REFERENCE_PHASORS, Feeder, LoadSeries, PhaseAssignment,
                      injection_series)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# |u| below this is treated as voltage collapse rather than a slow iterate
_COLLAPSE_PU = 0.05


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
    """``x @ m_t`` as one (1, n) @ (n, n) product per row of ``x``, so a
    row's bits do not depend on the other rows or their number."""
    return np.matmul(x[:, None, :], m_t)[:, 0]


def _solve_block(feeder: Feeder, s_bus_w: np.ndarray, tol: float, max_iter: int) -> PFSeries:
    """Solve each timestep of the (T, n_buses, 3) injections as one block row."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    pf = feeder.pf_tables
    horizon, n_buses = s_bus_w.shape[:2]
    # loads consume, so the net injection is negative.  The column gather
    # returns column-major blocks; in C order each row, and each row of the
    # temporaries made from it, is unit-stride, as BLAS takes it uncopied
    sa = np.ascontiguousarray(-(s_bus_w.reshape(horizon, -1) / feeder.base_power)[:, pf.other])
    u = np.tile(REFERENCE_PHASORS, (horizon, n_buses))
    ua = np.ascontiguousarray(u[:, pf.other])
    converged, iterations = np.zeros(horizon, dtype=bool), np.zeros(horizon, dtype=int)
    collapsed = np.zeros(horizon, dtype=bool)
    mismatch, idx = np.full(horizon, np.inf), np.arange(horizon)
    for it in range(1, max_iter + 1):
        w = sa / ua
        ua, u_old = _row_products(np.conj(w) - pf.slack_rhs, pf.z_nn_t), ua
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
