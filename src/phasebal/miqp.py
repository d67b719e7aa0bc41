"""Binary program over phase-choice indicators, and its branch-and-bound.

The linear model is affine in the one-hot phase indicators, so the
continuous power-flow quantities can be eliminated: squared voltage
magnitudes and branch flows become explicit affine maps of the binaries.
What remains is a pure binary program:

* squared-magnitude unbalance (pvur_star): an epigraph variable per
  timestep bounds the worst absolute deviation from the per-bus phase
  mean over all balance buses; the objective is the time average of the
  epigraph variables, which is exact at the optimum.
* quadratic flow unbalance (pu_star): the cyclic pairwise differences of
  the balance-branch flows are affine, so the objective is a convex
  (positive semidefinite by construction) quadratic in the binaries.

The exact metrics (pvur, i_u, p_u) contain ratios of variables and are
rejected; they are not representable in this variable space.

Branch-and-bound is best-first with 3-way branching (fix one user to one
phase per child).  Node bounds come from the continuous relaxation:
a dense simplex with lazily generated epigraph rows for the linear
objective, and Frank-Wolfe over the node polytope for the quadratic one.
Each Frank-Wolfe iteration yields a certified lower bound from the
linearization gap, so early termination never produces an invalid bound.
Within a node, each LP warm-starts from the previous one's optimal
tableau (``solve_lp(..., warm=...)``): a cut round only appends violated
epigraph rows, and a Frank-Wolfe oracle LP only changes the cost.  A
node's first LP, the root check and the deletion filter solve cold.
A node whose budget-feasible completions (``network.completion_count``)
fit the leaf cap is closed exactly: its completions are generated in
lexicographic order by ``network.completions`` and scored in chunks.
Leaves are scored from (M, n) phase arrays in blocks of rows: the affine
part of the objective and of each side row gathers one coefficient row
per user and adds them in user order.  That is the dense one-hot
contraction's order less its exact zeros, so objective values are bitwise
the dense formula's, and no row's value depends on the batch around it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import lindist
from .errors import InfeasibleProgramError, ValidationError
from .metrics import ObjectiveSpec
from .network import (ConstraintConfig, Feeder, LoadSeries, PhaseAssignment,
                      completion_count, completions, feasible_mask, fixed_phase_counts)
from .problem import branch_denominator
from .simplex import solve_lp

SUPPORTED_OBJECTIVES = ("pvur_star", "pu_star")
LEAF_CHUNK = 2048  # completions scored per objective_batch call
SCORE_BLOCK = 256  # rows gathered at once by objective_batch and feasible_mask
FW_MAX_ITERS = 80  # Frank-Wolfe iterations per pu_star node


def _gather_sum(columns: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Row m is the sum over users u of ``columns[3u + phases[m, u] - 1]``.

    ``columns`` holds one row per (user, phase), shape (3n, L); ``phases``
    is (M, n).  Users are added in order, so every row of the (M, L)
    result is the same sequence of additions whatever M is.
    """
    rows = 3 * np.arange(phases.shape[1]) + phases - 1
    total = np.zeros((len(phases), columns.shape[1]))
    for u in range(phases.shape[1]):
        total += columns[rows[:, u]]
    return total


@dataclass(frozen=True)
class BnBOptions:
    abs_gap: float = 0.0
    rel_gap: float = 1e-6
    node_limit: int = 200_000
    time_limit_s: float | None = None
    leaf_enum_cap: int = 243
    initial_incumbent: PhaseAssignment | None = None

    def __post_init__(self):
        if self.abs_gap < 0 or self.rel_gap < 0:
            raise ValidationError("gap tolerances must be nonnegative")


@dataclass(frozen=True, eq=False)
class BinaryProgram:
    """Affine elimination of the linear model plus the binary constraints.

    Variable order is fixed: users by id, phases 1..3, then (for the
    epigraph objective) one auxiliary per timestep.
    """

    feeder: Feeder
    users: tuple[str, ...]
    c0: tuple[int, ...]
    objective_kind: str
    horizon: int
    delta_max: int
    gamma: tuple[int, int] | None      # remaining per-phase headroom handled at eval
    fixed_phase_counts: tuple[int, int, int]
    # pvur_star: deviation(t, loc, ph) = dev_const + dev_coef . delta   (percent)
    dev_const: np.ndarray | None       # (T, K, 3)
    dev_coef: np.ndarray | None        # (T, K, 3, n, 3)
    # pu_star: diff(t, br, pair) = diff_const + diff_coef . delta  (pu), with
    # weight[br] = 100 / denom[br]^2 applied inside the quadratic objective
    diff_const: np.ndarray | None      # (T, B, 3)
    diff_coef: np.ndarray | None       # (T, B, 3, n, 3)
    branch_weight: np.ndarray | None   # (B,)
    # screened linear side constraints over delta: row . delta <= rhs
    side_rows: tuple = ()               # (label, coef (n,3), rhs)
    baseline_objective: float = 0.0     # objective when there are no binaries

    @property
    def n_users(self) -> int:
        return len(self.users)

    def var_names(self) -> list[str]:
        names = [f"d_{u}_{ph}" for u in self.users for ph in (1, 2, 3)]
        if self.objective_kind == "pvur_star":
            names += [f"m_{t}" for t in range(self.horizon)]
        return names

    # -- evaluation ---------------------------------------------------------

    @functools.cached_property
    def _objective_columns(self) -> np.ndarray:
        """The objective's affine coefficients as (3n, T*K*3) or (3n, T*B*3)."""
        coef = self.dev_coef if self.objective_kind == "pvur_star" else self.diff_coef
        return np.ascontiguousarray(np.moveaxis(coef, (3, 4), (0, 1))).reshape(
            3 * self.n_users, -1)

    @functools.cached_property
    def _side_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The side rows' coefficients as (3n, R) and their limits (R,)."""
        coef = np.stack([c for _, c, _ in self.side_rows], axis=-1)
        limits = np.array([rhs + 1e-9 for _, _, rhs in self.side_rows])
        return coef.reshape(3 * self.n_users, -1), limits

    def _row(self, assignment: PhaseAssignment) -> np.ndarray:
        if len(assignment) != self.n_users:
            raise ValidationError("assignment length does not match program")
        return np.array([assignment.phases], dtype=int)

    def objective_at(self, assignment: PhaseAssignment) -> float:
        if self.n_users == 0:
            return self.baseline_objective
        return float(self.objective_batch(self._row(assignment))[0])

    def objective_batch(self, phases: np.ndarray) -> np.ndarray:
        """Objective for a stack of configurations, shape (M, n).

        Rows are scored in blocks of ``SCORE_BLOCK``, the affine part by a
        user-ordered ``_gather_sum``: it adds the nonzero products of the
        dense one-hot contraction in that contraction's order, so each value
        is bitwise the dense formula's and independent of the batch width.
        """
        phases = np.asarray(phases)
        pvur = self.objective_kind == "pvur_star"
        const = (self.dev_const if pvur else self.diff_const).reshape(-1)
        out = np.empty(len(phases))
        for start in range(0, len(phases), SCORE_BLOCK):
            block = phases[start:start + SCORE_BLOCK]
            m = len(block)
            x = _gather_sum(self._objective_columns, block)
            x += const
            if pvur:
                np.abs(x, out=x)
                worst = x.reshape(m, self.horizon, -1).max(axis=2)
                out[start:start + m] = worst.mean(axis=1)
            else:
                np.square(x, out=x)
                per_branch = x.reshape(m, self.horizon, -1, 3).sum(axis=3) \
                    * self.branch_weight[None, None, :]
                out[start:start + m] = per_branch.mean(axis=2).mean(axis=1)
        return out

    def feasible_mask(self, phases: np.ndarray) -> np.ndarray:
        """Which of the (M, n) configurations ``phases`` meet the budget, the
        phase counts and every screened side row."""
        phases = np.asarray(phases)
        ok = feasible_mask(phases, self.c0, self.delta_max,
                           self.fixed_phase_counts, self.gamma)
        if self.side_rows:
            columns, limits = self._side_columns
            for start in range(0, len(phases), SCORE_BLOCK):
                lhs = _gather_sum(columns, phases[start:start + SCORE_BLOCK])
                ok[start:start + SCORE_BLOCK] &= (lhs <= limits).all(axis=1)
        return ok

    def point_feasible(self, assignment: PhaseAssignment) -> bool:
        return bool(self.feasible_mask(self._row(assignment))[0])


def _screened_rows(bands):
    """The voltage-band and thermal rows over delta that some 0/1 one-hot
    point can violate, in (location, t, phase, max/min) order.

    Each band is (tag, location, baseline (T, L, 3), increments
    (n, 3, T, L, 3), location index, upper, lower).  A row's worst case is
    the user-ordered sum of each user's largest coefficient; it is computed
    for every (t, phase, side) of a band at once, and only rows whose worst
    case exceeds the rhs are built.
    """
    kept = []
    for tag, loc, base, incr, k, upper, lower in bands:
        coef = np.moveaxis(incr[:, :, :, k], (2, 3), (0, 1))     # (T, 3, n, 3)
        signed = np.stack([coef, -coef], axis=2)                # (T, 3, 2, n, 3)
        worst = signed.max(axis=4).sum(axis=3)                  # (T, 3, 2)
        rhs = np.stack([upper - base[:, k], base[:, k] - lower], axis=2)
        for t, ph, side in zip(*np.nonzero(worst > rhs + 1e-12)):
            kept.append((f"{tag}{('max', 'min')[side]}_{loc}_t{t}_ph{ph + 1}",
                         signed[t, ph, side], rhs[t, ph, side]))
    return tuple(kept)


def build_program(feeder: Feeder, loads: LoadSeries,
                  constraints: ConstraintConfig, objective: ObjectiveSpec) -> BinaryProgram:
    """Eliminate the linear model into a binary program for the proxy metric."""
    if objective.metric not in SUPPORTED_OBJECTIVES:
        raise ValidationError(
            f"objective {objective.metric!r} is not representable in the "
            f"linear-model variable space (needs ratios of variables); "
            f"supported here: {SUPPORTED_OBJECTIVES}")
    balance_branches = objective.branches_for(feeder)
    limited = [br for br in feeder.branches if br.power_limit_va is not None]
    sens = lindist.sensitivity(feeder, loads)
    pr = feeder.reconfigurable_users()
    users = tuple(u.id for u in pr)
    c0 = tuple(u.original_phase for u in pr)
    n = len(users)
    horizon = loads.horizon

    # voltage band and thermal limits as screened linear rows over delta
    bands = [("v", bus, sens.omega0, sens.d_omega, feeder.bus_index(bus),
              constraints.v_max ** 2, constraints.v_min ** 2)
             for bus in feeder.buses if bus != feeder.reference_bus]
    for br in limited:
        lim = br.power_limit_va / feeder.base_power
        for tag, base, incr in (("p", sens.flow0_p, sens.d_flow_p),
                                ("q", sens.flow0_q, sens.d_flow_q)):
            bands.append((tag, f"{br.from_bus}-{br.to_bus}", base, incr,
                          feeder.branch_index(br), lim, -lim))
    side_rows = _screened_rows(bands)

    kwargs = dict(feeder=feeder, users=users, c0=c0, horizon=horizon,
                  delta_max=constraints.delta_max, gamma=constraints.phase_count_bounds,
                  fixed_phase_counts=fixed_phase_counts(feeder), side_rows=side_rows,
                  dev_const=None, dev_coef=None, diff_const=None,
                  diff_coef=None, branch_weight=None)

    if objective.metric == "pvur_star":
        buses = objective.buses_for(feeder)
        k_idx = [feeder.bus_index(b) for b in buses]
        omega0 = sens.omega0[:, k_idx, :]                    # (T, K, 3)
        d_omega = sens.d_omega[:, :, :, k_idx, :]            # (n, 3, T, K, 3)
        dev_const = (omega0 - omega0.mean(axis=2, keepdims=True)) * 100.0
        coef = np.moveaxis(d_omega, (0, 1), (3, 4))          # (T, K, 3, n, 3)
        dev_coef = (coef - coef.mean(axis=2, keepdims=True)) * 100.0
        baseline = float(np.abs(dev_const).max(axis=(1, 2)).mean()) if n == 0 else 0.0
        return BinaryProgram(**{**kwargs, "objective_kind": "pvur_star",
                                "dev_const": dev_const, "dev_coef": dev_coef,
                                "baseline_objective": baseline})

    b_idx = [feeder.branch_index(br) for br in balance_branches]
    flow0 = sens.flow0_p[:, b_idx]                           # (T, B, 3)
    d_flow = sens.d_flow_p[:, :, :, b_idx]                   # (n, 3, T, B, 3)
    diff_const = flow0 - np.roll(flow0, -1, axis=2)
    coef = d_flow - np.roll(d_flow, -1, axis=4)
    diff_coef = np.moveaxis(coef, (0, 1), (3, 4))            # (T, B, 3, n, 3)
    weight = np.array([100.0 / branch_denominator(feeder, loads, br) ** 2
                       for br in balance_branches])
    baseline = 0.0
    if n == 0:
        per_branch = (diff_const ** 2).sum(axis=2) * weight[None, :]
        baseline = float(per_branch.mean(axis=1).mean())
    return BinaryProgram(**{**kwargs, "objective_kind": "pu_star",
                            "diff_const": diff_const, "diff_coef": diff_coef,
                            "branch_weight": weight, "baseline_objective": baseline})


# -- branch and bound --------------------------------------------------------


@dataclass
class BnBResult:
    assignment: PhaseAssignment
    objective: float
    bound: float
    gap: float
    nodes: int
    status: str  # optimal | node_limit | time_limit
    relaxations_solved: int = 0


class _NodeData:
    __slots__ = ("fixed", "bound", "active_rows")

    def __init__(self, fixed, bound, active_rows=()):
        self.fixed = fixed          # tuple of phase or 0 (free), length n
        self.bound = bound
        self.active_rows = active_rows  # epigraph working set, inherited


def _quadratic_parts(prog: BinaryProgram):
    """Global (Q, q, const) of the pu_star objective over flattened delta."""
    t_dim, b_dim, _, n, _ = prog.diff_coef.shape
    a = prog.diff_coef.reshape(t_dim, b_dim, 3, 3 * n)
    w = prog.branch_weight[None, :, None] / (t_dim * b_dim)
    q_mat = np.einsum("tbja,tbjc,tbj->ac", a, a, np.broadcast_to(w, a.shape[:3]))
    lin = 2.0 * np.einsum("tbja,tbj->a", a, prog.diff_const * w)
    const = float(np.sum(prog.diff_const ** 2 * w))
    return q_mat, lin, const


class _BnBSolver:
    def __init__(self, prog: BinaryProgram, opts: BnBOptions):
        self.prog = prog
        self.opts = opts
        self.n = prog.n_users
        self.relaxations = 0
        if prog.objective_kind == "pu_star":
            self.q_mat, self.q_lin, self.q_const = _quadratic_parts(prog)

    def _used(self, fixed) -> int:
        """Switches spent by the fixed users of a node."""
        return sum(1 for ph, p0 in zip(fixed, self.prog.c0) if ph not in (0, p0))

    # ---- shared polytope rows over the free users of a node ----

    def _node_base_rows(self, fixed):
        """(a_eq, b_eq, a_ub, b_ub, labels, free) over free delta variables."""
        prog = self.prog
        free = [i for i, ph in enumerate(fixed) if ph == 0]
        f = len(free)
        nv = 3 * f
        a_eq = np.zeros((f, nv))
        for r in range(f):
            a_eq[r, 3 * r: 3 * r + 3] = 1.0
        b_eq = np.ones(f)
        rows, rhs, labels = [], [], []
        used = self._used(fixed)
        budget_row = np.zeros(nv)
        for r, i in enumerate(free):
            budget_row[3 * r + (prog.c0[i] - 1)] = -1.0
        rows.append(budget_row)
        rhs.append(prog.delta_max - used - f)
        labels.append("budget")
        if prog.gamma is not None:
            counts = list(prog.fixed_phase_counts)
            for i, ph in enumerate(fixed):
                if ph:
                    counts[ph - 1] += 1
            lo, hi = prog.gamma
            for ph in range(3):
                row = np.zeros(nv)
                row[ph::3] = 1.0
                rows.append(row)
                rhs.append(hi - counts[ph])
                labels.append(f"count_upp_ph{ph + 1}")
                rows.append(-row)
                rhs.append(counts[ph] - lo)
                labels.append(f"count_low_ph{ph + 1}")
        for label, coef, srhs in prog.side_rows:
            fixed_part = sum(float(coef[i, fixed[i] - 1]) for i in range(self.n)
                             if fixed[i])
            row = coef[free].reshape(-1)
            rows.append(row)
            rhs.append(srhs - fixed_part)
            labels.append(label)
        a_ub = np.array(rows) if rows else np.zeros((0, nv))
        b_ub = np.array(rhs)
        return a_eq, b_eq, a_ub, b_ub, labels, free

    # ---- pvur_star: lazy-row epigraph LP ----

    def _node_dev(self, fixed, free):
        prog = self.prog
        const = prog.dev_const.copy()
        for i, ph in enumerate(fixed):
            if ph:
                const += prog.dev_coef[:, :, :, i, ph - 1]
        t_dim, k_dim, _ = const.shape
        coef = prog.dev_coef[:, :, :, free, :].reshape(t_dim, k_dim, 3, -1)
        return const, coef

    def _solve_lp_node(self, fixed, active_rows):
        prog = self.prog
        a_eq, b_eq, a_ub, b_ub, _, free = self._node_base_rows(fixed)
        f = len(free)
        nv = 3 * f
        t_dim = prog.horizon
        const, coef = self._node_dev(fixed, free)
        total = nv + t_dim
        c_obj = np.zeros(total)
        c_obj[nv:] = 1.0 / t_dim
        a_eq_full = np.hstack([a_eq, np.zeros((a_eq.shape[0], t_dim))])
        base_ub = np.hstack([a_ub, np.zeros((a_ub.shape[0], t_dim))])
        active = list(dict.fromkeys(active_rows))
        res = None
        for _ in range(200):
            rows = [base_ub]
            rhs = [b_ub]
            for (t, k, ph, sign) in active:
                row = np.zeros(total)
                row[:nv] = sign * coef[t, k, ph]
                row[nv + t] = -1.0
                rows.append(row[None, :])
                rhs.append(np.array([-sign * const[t, k, ph]]))
            # new cuts are appended, so each round warm-starts from the last
            res = solve_lp(c_obj, np.vstack(rows), np.concatenate(rhs),
                           a_eq_full, b_eq, warm=res)
            self.relaxations += 1
            if res.status != "optimal":
                return res.status, None, None, tuple(active)
            x = res.x
            dev = const + np.einsum("tkpa,a->tkp", coef, x[:nv])
            m = x[nv:]
            viol = np.abs(dev) - (m[:, None, None] + 1e-9)
            worst = viol.reshape(t_dim, -1).max(axis=1)
            if np.all(worst <= 1e-9):
                return "optimal", res.objective, x, tuple(active)
            for t in np.flatnonzero(worst > 1e-9):
                flat = np.argmax(viol[t].reshape(-1))
                k, ph = np.unravel_index(flat, viol[t].shape)
                sign = 1.0 if dev[t, k, ph] >= 0 else -1.0
                key = (int(t), int(k), int(ph), sign)
                if key not in active:
                    active.append(key)
        return "iteration_limit", None, None, tuple(active)

    # ---- pu_star: Frank-Wolfe with certified bounds ----

    def _node_quadratic(self, fixed, free):
        mask = np.zeros(3 * self.n, dtype=bool)
        vals = np.zeros(3 * self.n)
        for i, ph in enumerate(fixed):
            if ph:
                mask[3 * i + ph - 1] = True
                vals[3 * i + ph - 1] = 1.0
        free_cols = np.concatenate([np.arange(3 * i, 3 * i + 3) for i in free]) \
            if free else np.zeros(0, dtype=int)
        fixed_cols = np.flatnonzero(~np.isin(np.arange(3 * self.n), free_cols))
        v = vals[fixed_cols]
        q_ff = self.q_mat[np.ix_(free_cols, free_cols)]
        lin = self.q_lin[free_cols] + 2.0 * self.q_mat[np.ix_(free_cols, fixed_cols)] @ v
        const = (self.q_const + float(v @ self.q_mat[np.ix_(fixed_cols, fixed_cols)] @ v)
                 + float(self.q_lin[fixed_cols] @ v))
        return q_ff, lin, const

    def _solve_qp_node(self, fixed, incumbent_value):
        a_eq, b_eq, a_ub, b_ub, _, free = self._node_base_rows(fixed)
        q_ff, lin, const = self._node_quadratic(fixed, free)

        def f(x):
            return float(x @ q_ff @ x + lin @ x + const)

        def grad(x):
            return 2.0 * (q_ff @ x) + lin

        start = solve_lp(lin, a_ub, b_ub, a_eq, b_eq)
        self.relaxations += 1
        if start.status != "optimal":
            return start.status, None, None
        x, osc = start.x, start
        lower = -np.inf
        best_x, best_ub = x, f(x)
        for _ in range(FW_MAX_ITERS):
            g = grad(x)
            # same polytope, new gradient: only primal phase 2 runs
            osc = solve_lp(g, a_ub, b_ub, a_eq, b_eq, warm=osc)
            self.relaxations += 1
            if osc.status != "optimal":
                return osc.status, None, None
            v = osc.x
            gap = float(g @ (x - v))
            lower = max(lower, f(x) - gap)
            if f(x) < best_ub:
                best_ub, best_x = f(x), x
            if gap <= 1e-10 * max(1.0, abs(best_ub)):
                break
            if lower >= incumbent_value - self._prune_slack(incumbent_value):
                break  # node will be pruned; bound is already conclusive
            d = v - x
            denom = float(d @ q_ff @ d)
            step = 1.0 if denom <= 0 else min(1.0, max(0.0, -float(g @ d) / (2 * denom)))
            if step <= 0:
                break
            x = x + step * d
        return "optimal", lower, best_x

    def _prune_slack(self, incumbent_value):
        return max(self.opts.abs_gap,
                   self.opts.rel_gap * max(abs(incumbent_value), 1e-12))

    # ---- leaf enumeration ----

    def _enumerate_leaf(self, fixed):
        """Exact minimum over every feasible completion of ``fixed``.

        Completions come in lexicographic order and are scored in chunks of
        ``LEAF_CHUNK`` consecutive ones; points that break the counts or a
        side row are masked out before scoring, and the first minimum wins.
        """
        prog = self.prog
        cands = completions(prog.c0, fixed, prog.delta_max - self._used(fixed))
        best_val, best_assign = np.inf, None
        for start in range(0, len(cands), LEAF_CHUNK):
            chunk = cands[start:start + LEAF_CHUNK]
            chunk = chunk[prog.feasible_mask(chunk)]
            if len(chunk):
                vals = prog.objective_batch(chunk)
                pick = int(np.argmin(vals))
                if vals[pick] < best_val:
                    best_val = float(vals[pick])
                    best_assign = PhaseAssignment(chunk[pick])
        return best_val, best_assign


def _raise_with_iis(prog: BinaryProgram, solver: "_BnBSolver") -> None:
    """Shrink the ub rows to an irreducible infeasible subset and raise."""
    a_eq, b_eq, a_ub, b_ub, labels, _ = solver._node_base_rows((0,) * prog.n_users)

    def feasible(keep):
        res = solve_lp(np.zeros(a_eq.shape[1]), a_ub[keep], b_ub[keep], a_eq, b_eq)
        return res.status == "optimal"

    keep = list(range(len(labels)))
    for r in list(keep):
        trial = [k for k in keep if k != r]
        if not feasible(trial):
            keep = trial
    raise InfeasibleProgramError(
        "binary program infeasible", rows=[labels[k] for k in keep])


def branch_and_bound(prog: BinaryProgram, opts: BnBOptions | None = None) -> BnBResult:
    """Best-first search with 3-way per-user branching.

    Returns the incumbent with a proof gap within the configured
    tolerances, or the best point found when a node/time limit stops the
    search first (the status field says which).
    """
    opts = opts or BnBOptions()
    if prog.n_users == 0:
        return BnBResult(assignment=PhaseAssignment(()),
                         objective=prog.baseline_objective,
                         bound=prog.baseline_objective, gap=0.0, nodes=1,
                         status="optimal")
    solver = _BnBSolver(prog, opts)
    root_rows = solver._node_base_rows((0,) * prog.n_users)
    root_check = solve_lp(np.zeros(root_rows[0].shape[1]), root_rows[2],
                          root_rows[3], root_rows[0], root_rows[1])
    if root_check.status == "infeasible":
        _raise_with_iis(prog, solver)
    started = time.monotonic()

    incumbent, inc_value = None, np.inf
    for cand in (PhaseAssignment(prog.c0), opts.initial_incumbent):
        if cand is not None and prog.point_feasible(cand):
            val = prog.objective_at(cand)
            if val < inc_value:
                incumbent, inc_value = cand, val

    counter = itertools.count()
    heap = [(-np.inf, next(counter),
             _NodeData(fixed=(0,) * prog.n_users, bound=-np.inf))]
    nodes = 0
    status = "optimal"
    final_bound = None

    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound >= inc_value - solver._prune_slack(inc_value):
            final_bound = bound  # remaining nodes cannot beat the incumbent
            break
        if nodes >= opts.node_limit:
            status, final_bound = "node_limit", bound
            break
        if opts.time_limit_s is not None \
                and time.monotonic() - started > opts.time_limit_s:
            status, final_bound = "time_limit", bound
            break
        nodes += 1

        n_free = node.fixed.count(0)
        if completion_count(n_free, prog.delta_max - solver._used(node.fixed)) \
                <= opts.leaf_enum_cap:
            val, assign = solver._enumerate_leaf(node.fixed)
            if assign is not None and val < inc_value:
                inc_value, incumbent = val, assign
            continue

        if prog.objective_kind == "pvur_star":
            st, rel_bound, x, active = solver._solve_lp_node(node.fixed,
                                                             node.active_rows)
        else:
            st, rel_bound, x = solver._solve_qp_node(node.fixed, inc_value)
            active = ()
        if st == "infeasible":
            continue
        if st != "optimal" or rel_bound is None:
            rel_bound, x = node.bound, None
        rel_bound = max(rel_bound, node.bound)
        if rel_bound >= inc_value - solver._prune_slack(inc_value):
            continue

        free = [i for i, ph in enumerate(node.fixed) if ph == 0]
        branch_user = free[0]
        if x is not None:
            frac_score = -1.0
            rounded = list(node.fixed)
            for r, i in enumerate(free):
                d_u = x[3 * r: 3 * r + 3]
                score = 1.0 - float(d_u.max())
                if score > frac_score:
                    frac_score, branch_user = score, i
                rounded[i] = int(np.argmax(d_u)) + 1
            cand = PhaseAssignment(tuple(rounded))
            if prog.point_feasible(cand):
                val = prog.objective_at(cand)
                if val < inc_value:
                    inc_value, incumbent = val, cand
            if frac_score <= 1e-6 and prog.objective_kind == "pvur_star":
                # integral LP solution: the node bound equals its objective
                continue
        for ph in (1, 2, 3):
            child = list(node.fixed)
            child[branch_user] = ph
            child = tuple(child)
            if solver._used(child) > prog.delta_max:
                continue
            heapq.heappush(heap, (rel_bound, next(counter),
                                  _NodeData(child, rel_bound, active)))

    if incumbent is None:
        # the root relaxation is feasible, so no subset of rows is infeasible
        raise InfeasibleProgramError(
            "the continuous relaxation is feasible, but no configuration meeting "
            f"every row was found (search status: {status})", rows=())
    if final_bound is None:
        final_bound = inc_value  # tree exhausted: the incumbent is proven optimal
    final_bound = min(final_bound, inc_value)
    return BnBResult(assignment=incumbent, objective=inc_value,
                     bound=final_bound, gap=inc_value - final_bound,
                     nodes=nodes, status=status,
                     relaxations_solved=solver.relaxations)
