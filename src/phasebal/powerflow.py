"""Exact three-wire unbalanced power flow by fixed-point current injection.

Voltages are per-unit, line-to-neutral, with the reference bus pinned to
the balanced set (1 at 0 deg, 1 at -120 deg, 1 at +120 deg).  Each
iteration converts the load powers into current injections at the present
voltages and solves the reduced nodal admittance system for the
non-reference voltages; convergence is declared when the infinity norm of
the per-(bus, phase) power mismatch drops below the tolerance.

All timesteps of a series are solved as one block, one column each; a
column leaves the block once converged, so it takes the iterations of an
independent solve.  A column's result must not depend on the block width,
or a series would differ from its single-step solves.  BLAS products and
a multi-right-hand-side LU solve pick kernels and summation orders by
shape, so the iteration contracts with ``np.einsum`` (a fixed-order loop)
against a dense inverse of the reduced Y-bus cached per feeder.  No
``lu_solve`` runs in the loop, so worker threads share no pivot array.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, MetricError, ValidationError
from .network import Feeder, LoadSeries, PhaseAssignment, injection_series, injections

REFERENCE_PHASORS = np.array([1.0,
                              np.exp(-2j * np.pi / 3),
                              np.exp(+2j * np.pi / 3)])

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# |u| below this is treated as voltage collapse rather than a slow iterate
_COLLAPSE_PU = 0.05


def build_ybus(feeder: Feeder) -> np.ndarray:
    """Dense nodal admittance matrix over (bus, phase), per-unit.

    Index of (bus b, phase ph) is 3 * feeder.bus_index(b) + ph.
    """
    n = 3 * len(feeder.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in feeder.branches:
        yb = np.linalg.inv(feeder.z_pu(br))
        i = 3 * feeder.bus_index(br.from_bus)
        j = 3 * feeder.bus_index(br.to_bus)
        y[i:i + 3, i:i + 3] += yb
        y[j:j + 3, j:j + 3] += yb
        y[i:i + 3, j:j + 3] -= yb
        y[j:j + 3, i:i + 3] -= yb
    return y


class _FeederSolver:
    """Per-feeder operators of the fixed-point iteration, shared read-only.

    The admittance structure does not depend on the phase assignment, so
    one inverse of the reduced Y-bus serves every candidate and timestep.
    Branch arrays follow ``feeder.branches`` order.
    """

    def __init__(self, feeder: Feeder):
        y = build_ybus(feeder)
        r = 3 * feeder.bus_index(feeder.reference_bus)
        ref_idx = np.arange(r, r + 3)
        self.other_idx = np.setdiff1d(np.arange(y.shape[0]), ref_idx)
        self.y_nn = y[np.ix_(self.other_idx, self.other_idx)]
        self.z_nn = np.linalg.inv(self.y_nn)
        self.slack_rhs = (y[np.ix_(self.other_idx, ref_idx)] @ REFERENCE_PHASORS)[:, None]
        self.y_branch = np.stack([np.linalg.inv(feeder.z_pu(br)) for br in feeder.branches])
        self.from_idx = [feeder.bus_index(br.from_bus) for br in feeder.branches]
        self.to_idx = [feeder.bus_index(br.to_bus) for br in feeder.branches]
        self.ref_branches = [k for k, br in enumerate(feeder.branches)
                             if br.from_bus == feeder.reference_bus]


@lru_cache(maxsize=None)
def _solver_for(feeder: Feeder) -> _FeederSolver:
    return _FeederSolver(feeder)


@dataclass(frozen=True, eq=False)
class PFSolution:
    """Converged (or flagged) state for one timestep, everything per-unit.

    Branch arrays follow ``feeder.branches`` order.
    """

    u: np.ndarray                 # (n_buses, 3) complex voltages
    s_from: np.ndarray            # (n_branches, 3) power leaving the from bus
    s_to: np.ndarray              # (n_branches, 3) power leaving the to bus
    current: np.ndarray           # (n_branches, 3) current from -> to
    converged: bool
    iterations: int
    max_mismatch: float
    feeder: Feeder

    @property
    def flows(self) -> dict:
        """Branch key -> (s_from, s_to), complex 3-vectors."""
        return {br.key: (self.s_from[k], self.s_to[k])
                for k, br in enumerate(self.feeder.branches)}

    def u_mag(self) -> np.ndarray:
        return np.abs(self.u)

    def omega(self) -> np.ndarray:
        return np.abs(self.u) ** 2


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
    feeder: Feeder

    def __len__(self) -> int:
        return self.u.shape[0]

    def __getitem__(self, t):
        arrays = (self.u[t], self.s_from[t], self.s_to[t], self.current[t])
        if isinstance(t, slice):
            return PFSeries(*arrays, self.converged[t], self.iterations[t],
                            self.max_mismatch[t], self.feeder)
        return PFSolution(*arrays, bool(self.converged[t]), int(self.iterations[t]),
                          float(self.max_mismatch[t]), self.feeder)


def _solve_block(feeder: Feeder, s_bus_w: np.ndarray, tol: float, max_iter: int,
                 start: np.ndarray | None = None) -> PFSeries:
    """Solve every timestep of the (T, n_buses, 3) injections, one column
    each; a converged column is frozen and leaves the block."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    solver = _solver_for(feeder)
    horizon, n_buses = s_bus_w.shape[:2]
    # net injected power: loads consume, so the net injection is negative
    s_inj = -(s_bus_w.reshape(horizon, -1) / feeder.base_power)[:, solver.other_idx].T
    start = np.tile(REFERENCE_PHASORS, n_buses) if start is None else np.asarray(start, complex)
    un = start.reshape(-1, 1)[solver.other_idx].repeat(horizon, axis=1)
    converged, iterations = np.zeros(horizon, dtype=bool), np.zeros(horizon, dtype=int)
    mismatch, active = np.full(horizon, np.inf), np.arange(horizon)
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        ua, sa = un[:, active], s_inj[:, active]
        if np.any(np.abs(ua) < _COLLAPSE_PU):
            raise ConvergenceError(
                f"voltage collapsed below {_COLLAPSE_PU} pu after {it - 1} iterations")
        ua = np.einsum("ij,jt->it", solver.z_nn, np.conj(sa / ua) - solver.slack_rhs)
        s_calc = ua * np.conj(np.einsum("ij,jt->it", solver.y_nn, ua) + solver.slack_rhs)
        un[:, active] = ua
        iterations[active] = it
        mismatch[active] = np.max(np.abs(s_calc - sa), axis=0)
        converged[active] = mismatch[active] <= tol
        active = active[~converged[active]]
    u = np.tile(REFERENCE_PHASORS, (horizon, n_buses))
    u[:, solver.other_idx] = un.T
    u = u.reshape(horizon, n_buses, 3)
    ui, uj = u[:, solver.from_idx], u[:, solver.to_idx]
    current = np.einsum("kab,tkb->tka", solver.y_branch, ui - uj)
    return PFSeries(u, ui * np.conj(current), uj * np.conj(-current), current,
                    converged, iterations, mismatch, feeder)


def solve_pf(feeder: Feeder, assignment: PhaseAssignment, loads: LoadSeries,
             t: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
             start: np.ndarray | None = None) -> PFSolution:
    """Solve one timestep; returns a PFSolution (non-convergence is flagged)."""
    s_bus = injections(feeder, assignment, loads, t)
    return _solve_block(feeder, s_bus[None], tol, max_iter, start)[0]


def solve_series(feeder: Feeder, assignment: PhaseAssignment, loads: LoadSeries,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
                 ) -> PFSeries:
    """Independent flat-start solves of every timestep, as one block."""
    return _solve_block(feeder, injection_series(feeder, assignment, loads),
                        tol, max_iter)


def losses(sol: PFSolution | PFSeries, feeder: Feeder):
    """Series losses as a percentage of the active power entering at the
    reference bus: a float for one PFSolution, a (T,) array for a PFSeries."""
    if not np.all(sol.converged):
        raise ConvergenceError("losses require a converged solution")
    loss = np.sum(np.real(sol.s_from + sol.s_to), axis=(-2, -1))
    p_ref = np.sum(np.real(sol.s_from[..., _solver_for(feeder).ref_branches, :]), axis=(-2, -1))
    idle = np.abs(p_ref) < 1e-12
    if np.any(idle & (np.abs(loss) >= 1e-12)):
        raise MetricError("loss fraction undefined: zero reference injection")
    percent = np.where(idle, 0.0, 100.0 * loss / np.where(idle, 1.0, p_ref))
    return float(percent) if percent.ndim == 0 else percent
