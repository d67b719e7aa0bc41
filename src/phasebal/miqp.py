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
phase per child).  Node bounds come from the continuous relaxation over
the full node polytope: a dense simplex for the linear objective, and
Frank-Wolfe for the quadratic one, whose every iteration yields a
certified lower bound from the linearization gap.  A node LP holds the
budget and phase-count rows plus a working set of lazy rows: epigraph
cuts, and the screened side rows that an LP point of the node or of an
ancestor broke.  A row joins when the LP point violates it, and the LP
warm-starts from the previous optimal tableau (``solve_lp(..., warm=...)``)
with it appended, until the point meets every row.  Children start from
the cuts tight at the parent's optimum and all its side rows.  A node's
first LP, the root check and the deletion filter solve cold.  Without
gamma, a later Frank-Wolfe oracle call takes the greedy vertex of the
one-hot and budget rows, an integral polytope, when no choice ties and
it meets every side row: it is then the node LP's unique optimum.
Otherwise the LP runs warm with the new cost.
A node whose budget-feasible completions (``network.completion_count``)
fit the leaf cap is closed exactly: ``network.completions`` generates its
completions in lexicographic order and, given a finite incumbent, drops
each prefix as it builds it once the prefix's interval bound over the
suffix still to place (``_prefix_bound``) exceeds that incumbent; the
completions left are scored in chunks.
Leaves are scored from (M, n) phase arrays in blocks of rows: the affine
part of the objective and of every side row gathers one coefficient row
per user and adds them in user order; the switch budget and phase counts
are ``network.feasible_mask``'s integer counts.  That is the dense one-hot
contraction's order less its exact zeros, so objective values are bitwise
the dense formula's, and no row's value depends on the batch around it.
A leaf drops the rows whose lower bound (``_finish_bound``) exceeds its
best so far or the incumbent before it scores them (``_enumerate_leaf``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import lindist
from .errors import InfeasibleProgramError, ValidationError
from .metrics import ObjectiveSpec
from .network import (ConstraintConfig, Feeder, LoadSeries, PhaseAssignment,
                      completion_count, completions, feasible_mask, fixed_phase_counts)
from .simplex import solve_lp

SUPPORTED_OBJECTIVES = ("pvur_star", "pu_star")
LEAF_CHUNK = 256  # completions scored per objective_batch call
SCORE_BLOCK = 256  # rows gathered at once by objective_batch and feasible_mask
PREFIX_BLOCK = 2048  # prefixes bounded at once, which caps the bound's temporaries
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
        if not all(math.isfinite(gap) and gap >= 0 for gap in (self.abs_gap, self.rel_gap)):
            raise ValidationError(f"abs_gap {self.abs_gap!r} and rel_gap {self.rel_gap!r} "
                                  f"must be finite and nonnegative")
        if self.leaf_enum_cap < 1:  # a node with no switch left is then always a leaf
            raise ValidationError(f"leaf_enum_cap must be at least 1, got {self.leaf_enum_cap!r}")
        if self.node_limit < 1:
            raise ValidationError(f"node_limit must be at least 1, got {self.node_limit!r}")
        if self.time_limit_s is not None and not self.time_limit_s > 0:  # NaN fails too
            raise ValidationError(f"time_limit_s must be positive, got {self.time_limit_s!r}")


@dataclass(frozen=True, eq=False)
class BinaryProgram:
    """Affine elimination of the linear model plus the binary constraints.

    Variable order is fixed: users by id, phases 1..3, then (for the
    epigraph objective) one auxiliary per timestep.
    """

    users: tuple[str, ...]
    c0: tuple[int, ...]
    objective_kind: str
    horizon: int
    delta_max: int
    gamma: tuple[int, int] | None      # (low, upp) users per phase, None if not enforced
    fixed_phase_counts: tuple[int, int, int]  # non-reconfigurable users per phase
    # the objective's affine map x(t, loc, j) = const + coef . delta over L
    # locations: pvur_star's deviation of phase j from its bus's phase mean
    # (percent, K balance buses), pu_star's cyclic flow difference of phase
    # pair j (pu, B balance branches), weighted by branch_weight[br] =
    # 100 / denom[br]^2 inside the quadratic objective
    const: np.ndarray                  # (T, L, 3)
    coef: np.ndarray                   # (T, L, 3, n, 3)
    branch_weight: np.ndarray | None   # (B,) for pu_star, None for pvur_star
    # R screened voltage-band and thermal rows over delta: coef . delta <= rhs
    side_labels: tuple[str, ...]       # (R,)
    side_coef: np.ndarray              # (R, n, 3)
    side_rhs: np.ndarray               # (R,)

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
        """``coef`` as (3n, T*L*3), one row per (user, phase)."""
        return np.ascontiguousarray(np.moveaxis(self.coef, (3, 4), (0, 1))).reshape(
            3 * self.n_users, self.const.size)

    @functools.cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Every ``<=`` row over delta as (coef (R', n, 3), rhs (R',), labels),
        for the node LPs, the infeasibility report and the LP writer.

        The switch budget comes first, then ``count_upp`` and ``count_low``
        per phase when gamma is enforced (``count_low`` negated into ``<=``
        form), then the side rows.
        """
        n = self.n_users
        budget = np.zeros((1, n, 3))
        budget[0, np.arange(n), np.array(self.c0, dtype=int) - 1] = -1.0
        coef, rhs, labels = [budget], [[self.delta_max - n]], ["budget"]
        if self.gamma is not None:
            lo, hi = self.gamma
            counts = np.array(self.fixed_phase_counts)
            signed = np.stack([np.eye(3), -np.eye(3)], axis=1).reshape(6, 1, 3)
            coef.append(np.broadcast_to(signed, (6, n, 3)))
            rhs.append(np.stack([hi - counts, counts - lo], axis=1).reshape(-1))
            labels += [f"count_{side}_ph{ph}" for ph in (1, 2, 3) for side in ("upp", "low")]
        coef.append(self.side_coef)
        rhs.append(self.side_rhs)
        return np.concatenate(coef), np.concatenate(rhs), tuple(labels) + self.side_labels

    def _row(self, assignment: PhaseAssignment) -> np.ndarray:
        if len(assignment) != self.n_users:
            raise ValidationError("assignment length does not match program")
        return np.array([assignment.phases], dtype=int)

    def objective_at(self, assignment: PhaseAssignment) -> float:
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
        const = self.const.reshape(-1)
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

    def _kept_columns(self, row: np.ndarray) -> np.ndarray:
        """Per timestep, the objective column where the (n,) configuration
        ``row`` scores worst: the (bus, phase) deviation for pvur_star, the
        (branch, pair) term ``w_b x^2`` for pu_star."""
        worst = _gather_sum(self._objective_columns, row[None])[0] + self.const.reshape(-1)
        if self.objective_kind == "pvur_star":
            worst = np.abs(worst)
        else:
            worst = np.square(worst).reshape(self.horizon, -1, 3) \
                * self.branch_weight[:, None]
        worst = worst.reshape(self.horizon, -1)
        return np.arange(self.horizon) * worst.shape[1] + worst.argmax(axis=1)

    def _leaf_bound(self, phases: np.ndarray, anchor: int) -> np.ndarray:
        """``_finish_bound`` of the (M, n) rows on row ``anchor``'s columns."""
        keep = self._kept_columns(phases[anchor])
        return self._finish_bound(_gather_sum(self._objective_columns[:, keep], phases), keep)

    def _finish_bound(self, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """A lower bound on the objective of each row from ``x`` (M, T), its
        user-ordered sums over the ``keep`` columns (overwritten).  The
        objective maximizes over these entries or adds nonnegative terms to
        them before the same mean over t, and rounding is monotone on
        nonnegative numbers, so it is bitwise <= the objective for any keep."""
        x += self.const.reshape(-1)[keep]
        return self._distance_bound(np.abs(x, out=x), keep)

    def _distance_bound(self, dist: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """The mean over t of each row's term for its distances ``dist``
        (M, T) >= 0 from 0 on the ``keep`` columns (overwritten): the
        distance itself for pvur_star, ``w_b d^2 / B`` for pu_star.  Each
        step is monotone, so smaller distances never give a larger mean."""
        if self.objective_kind == "pu_star":
            np.square(dist, out=dist)
            branches = len(self.branch_weight)
            dist *= self.branch_weight[keep // 3 % branches]
            dist /= branches
        return dist.mean(axis=1)

    def _prefix_bound(self, fixed, keep: np.ndarray, budget: int):
        """``bound(pos, sums, left)``, bitwise <= the ``_finish_bound`` on
        ``keep`` of every completion of ``fixed`` within ``budget`` whose
        prefix through the free position ``pos`` has the user-ordered sums
        ``sums`` (M, T) and ``left`` (M,) switches to spend, as
        ``network.completions`` hands them to its ``prune``.

        Every later user adds its base entry, its fixed phase or, if free,
        its ``c0`` phase; at most ``left`` free ones switch instead.  The
        ``left`` most negative (positive) switch deltas of the later free
        users, each column sorted on its own, bound the rest of the sum
        below (above): a table over (position, left, column) built with one
        sort per sign.  The distance from 0 to const + sums + [lo, hi] is
        shrunk by a bound on the rounding of the sums on either side, at the
        scale of the column entries, so it never exceeds a completion's
        rounded |x|; a tied completion is never bounded above its value.
        """
        n, t_dim = self.n_users, len(keep)
        fixed = np.asarray(fixed, dtype=int)
        base = np.where(fixed == 0, np.asarray(self.c0, dtype=int), fixed) - 1
        entries = self._objective_columns[:, keep].reshape(n, 3, t_dim)
        own = entries[np.arange(n), base]                              # (n, T)
        delta = entries - own[:, None]
        delta[fixed != 0] = 0.0  # a fixed user does not switch
        later = (np.arange(n)[None, :] >= np.arange(n + 1)[:, None])[:, :, None]
        reach = max(0, min(budget, n))
        const = self.const.reshape(-1)[keep]
        rest = const + np.where(later, own, 0.0).sum(axis=1)          # (n+1, T)
        scale = np.abs(const) + np.abs(entries).max(axis=1).sum(axis=0)
        slack = 8 * (n + 4) * np.finfo(float).eps * scale  # > 2x both sides' worst rounding
        # (lo - slack, -hi - slack)[p, r] for the users from p on
        ends = []
        for sign, pick in ((1, delta.min(axis=1)), (-1, -delta.max(axis=1))):
            steps = np.sort(np.where(later, pick, 0.0), axis=1)        # (n+1, n, T)
            end = np.zeros((n + 1, reach + 1, t_dim))
            end[:, 1:] = np.cumsum(steps[:, :reach], axis=1)
            end += (sign * rest - slack)[:, None]
            ends.append(end)
        low, high = ends

        def bound(pos, sums, left):
            at, out = np.minimum(left, reach), np.empty(len(sums))
            for start in range(0, len(sums), PREFIX_BLOCK):
                block = slice(start, start + PREFIX_BLOCK)
                dist = low[pos + 1].take(at[block], axis=0)
                dist += sums[block]
                above = high[pos + 1].take(at[block], axis=0)
                above -= sums[block]
                np.maximum(dist, above, out=dist)
                out[block] = self._distance_bound(np.maximum(dist, 0.0, out=dist), keep)
            return out
        return bound

    def feasible_mask(self, phases: np.ndarray) -> np.ndarray:
        """Which of the (M, n) configurations ``phases`` keep the switch
        budget and phase counts (``network.feasible_mask``) and meet every
        side row to within 1e-9; each side row's sum is the user-ordered
        ``_gather_sum`` of its own column."""
        ok = feasible_mask(phases, self.c0, self.delta_max, self.fixed_phase_counts,
                           self.gamma)
        phases = np.asarray(phases)
        columns = np.moveaxis(self.side_coef, 0, -1).reshape(3 * self.n_users, -1)
        for start in range(0, len(phases), SCORE_BLOCK):
            lhs = _gather_sum(columns, phases[start:start + SCORE_BLOCK])
            ok[start:start + SCORE_BLOCK] &= (lhs <= self.side_rhs + 1e-9).all(axis=1)
        return ok

    def point_feasible(self, assignment: PhaseAssignment) -> bool:
        return bool(self.feasible_mask(self._row(assignment))[0])


def _screened_rows(bands, n: int):
    """The voltage-band and thermal rows over delta that some 0/1 one-hot
    point can violate, in (location, t, phase, max/min) order, as labels,
    coefficients (R, n, 3) and rhs (R,).

    Each band is (tag, location, baseline (T, L, 3), increments
    (n, 3, T, L, 3), location index, upper, lower).  A row's worst case is
    the user-ordered sum of each user's largest coefficient; it is computed
    for every (t, phase, side) of a band at once, and the rows whose worst
    case exceeds the rhs are taken by one fancy index.
    """
    labels, coef, rhs = [], [np.zeros((0, n, 3))], [np.zeros(0)]
    for tag, loc, base, incr, k, upper, lower in bands:
        band = np.moveaxis(incr[:, :, :, k], (2, 3), (0, 1))    # (T, 3, n, 3)
        signed = np.stack([band, -band], axis=2)                # (T, 3, 2, n, 3)
        worst = signed.max(axis=4).sum(axis=3)                  # (T, 3, 2)
        limit = np.stack([upper - base[:, k], base[:, k] - lower], axis=2)
        kept = np.nonzero(worst > limit + 1e-12)
        coef.append(signed[kept])
        rhs.append(limit[kept])
        labels += [f"{tag}{('max', 'min')[side]}_{loc}_t{t}_ph{ph + 1}"
                   for t, ph, side in zip(*kept)]
    return tuple(labels), np.concatenate(coef), np.concatenate(rhs)


def build_program(feeder: Feeder, loads: LoadSeries,
                  constraints: ConstraintConfig, objective: ObjectiveSpec) -> BinaryProgram:
    """Eliminate the linear model into a binary program for the proxy metric."""
    if objective.metric not in SUPPORTED_OBJECTIVES:
        raise ValidationError(
            f"objective {objective.metric!r} is not representable in the "
            f"linear-model variable space (needs ratios of variables); "
            f"supported here: {SUPPORTED_OBJECTIVES}")
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
    side_labels, side_coef, side_rhs = _screened_rows(bands, n)

    sites = objective.sites(feeder, loads)
    if objective.metric == "pvur_star":
        omega0 = sens.omega0[:, sites.index, :]              # (T, K, 3)
        d_omega = sens.d_omega[:, :, :, sites.index, :]      # (n, 3, T, K, 3)
        const = (omega0 - omega0.mean(axis=2, keepdims=True)) * 100.0
        coef = np.moveaxis(d_omega, (0, 1), (3, 4))          # (T, K, 3, n, 3)
        coef = (coef - coef.mean(axis=2, keepdims=True)) * 100.0
        weight = None
    else:
        flow0 = sens.flow0_p[:, sites.index]                 # (T, B, 3)
        d_flow = sens.d_flow_p[:, :, :, sites.index]         # (n, 3, T, B, 3)
        const = flow0 - np.roll(flow0, -1, axis=2)
        coef = np.moveaxis(d_flow - np.roll(d_flow, -1, axis=4), (0, 1), (3, 4))
        weight = np.array([100.0 / d ** 2 for d in sites.denom.tolist()])
    return BinaryProgram(
        users=users, c0=c0, objective_kind=objective.metric, horizon=horizon,
        delta_max=constraints.delta_max, gamma=constraints.phase_count_bounds,
        fixed_phase_counts=fixed_phase_counts(feeder), const=const, coef=coef,
        branch_weight=weight, side_labels=side_labels, side_coef=side_coef,
        side_rhs=side_rhs)


# -- branch and bound --------------------------------------------------------


@dataclass
class BnBResult:
    assignment: PhaseAssignment
    objective: float
    bound: float
    gap: float
    nodes: int
    status: str  # optimal | node_limit | time_limit
    relaxations_solved: int = 0  # solve_lp calls but the root check
    closed_form_vertices: int = 0  # Frank-Wolfe oracle vertices taken without an LP


def _quadratic_parts(prog: BinaryProgram):
    """Global (Q, q, const) of the pu_star objective over flattened delta."""
    t_dim, b_dim, _, n, _ = prog.coef.shape
    a = prog.coef.reshape(t_dim, b_dim, 3, 3 * n)
    w = prog.branch_weight[None, :, None] / (t_dim * b_dim)
    q_mat = np.einsum("tbja,tbjc,tbj->ac", a, a, np.broadcast_to(w, a.shape[:3]))
    lin = 2.0 * np.einsum("tbja,tbj->a", a, prog.const * w)
    const = float(np.sum(prog.const ** 2 * w))
    return q_mat, lin, const


class _BnBSolver:
    def __init__(self, prog: BinaryProgram, opts: BnBOptions):
        self.prog = prog
        self.opts = opts
        self.relaxations = self.closed_form = 0
        if prog.objective_kind == "pu_star":
            self.q_mat, self.q_lin, self.q_const = _quadratic_parts(prog)

    def _used(self, fixed) -> int:
        """Switches spent by the fixed users of a node."""
        fixed = np.asarray(fixed)
        return int(np.count_nonzero((fixed != 0) & (fixed != self.prog.c0)))

    # ---- shared polytope rows over the free users of a node ----

    def _node_base_rows(self, fixed):
        """(a_eq, b_eq, a_ub, b_ub, free) over free delta variables: one
        one-hot row per free user, then every row of ``prog.rows`` less the
        fixed users' part, which is added user by user from 0.0."""
        coef, rhs, _ = self.prog.rows
        free = [i for i, ph in enumerate(fixed) if ph == 0]
        fixed_part = np.zeros(len(rhs))
        for i, ph in enumerate(fixed):
            if ph:
                fixed_part += coef[:, i, ph - 1]
        a_eq = np.repeat(np.eye(len(free)), 3, axis=1)
        a_ub = coef[:, free].reshape(len(rhs), -1)
        return a_eq, np.ones(len(free)), a_ub, rhs - fixed_part, free

    def _node_lp(self, fixed, side, width=0):
        """A node's LP [a_ub, b_ub, a_eq, b_eq], ``width`` zero columns wider,
        with only the side rows ``side``; its free users; ``broken(x)``, the
        side rows ``x`` breaks by over 1e-9 (one matvec); and ``add_broken(x)``,
        which appends them to ``side`` and to the LP and says if there were any."""
        a_eq, b_eq, a_ub, b_ub, free = self._node_base_rows(fixed)
        a_eq, a_ub = (np.hstack([a, np.zeros((len(a), width))]) for a in (a_eq, a_ub))
        base = len(b_ub) - len(self.prog.side_rhs)
        keep = np.r_[0:base, base + np.array(side, dtype=int)]
        lp, side_a, side_b = [a_ub[keep], b_ub[keep], a_eq, b_eq], a_ub[base:], b_ub[base:]

        def broken(x):
            return np.flatnonzero(side_a @ x > side_b + 1e-9)

        def add_broken(x):
            new = [r for r in broken(x).tolist() if r not in side]
            if new:
                side.extend(new)
                lp[:2] = np.vstack([lp[0], side_a[new]]), np.concatenate([lp[1], side_b[new]])
            return bool(new)
        return lp, free, add_broken, broken

    # ---- pvur_star: lazy-row epigraph LP ----

    def _node_dev(self, fixed, free):
        prog = self.prog
        const = prog.const.copy()
        for i, ph in enumerate(fixed):
            if ph:
                const += prog.coef[:, :, :, i, ph - 1]
        t_dim, k_dim, _ = const.shape
        coef = prog.coef[:, :, :, free, :].reshape(t_dim, k_dim, 3, -1)
        return const, coef

    def _solve_lp_node(self, fixed, working):
        """The node's epigraph LP bound, from the working set (cuts, side
        rows) handed down by its parent.  Each round appends the broken side
        rows and each timestep's most violated cut and warm-starts; the
        children get the cuts tight at the optimum and every side row."""
        new, side, t_dim = list(working[0]), list(working[1]), self.prog.horizon
        lp, free, add_broken, _ = self._node_lp(fixed, side, t_dim)
        nv = 3 * len(free)
        const, coef = self._node_dev(fixed, free)
        c_obj = np.r_[np.zeros(nv), np.full(t_dim, 1.0 / t_dim)]
        cuts, res = [], None
        for _ in range(200):
            keys = np.array(new, dtype=float).reshape(-1, 4)
            cut, signs = tuple(keys[:, :3].astype(int).T), keys[:, 3]  # (t, k, ph), sign
            rows = np.zeros((len(keys), nv + t_dim))
            rows[:, :nv] = signs[:, None] * coef[cut]
            rows[np.arange(len(keys)), nv + cut[0]] = -1.0
            # new rows are appended, so each round warm-starts from the last
            lp[:2] = np.vstack([lp[0], rows]), np.concatenate([lp[1], -signs * const[cut]])
            cuts += new
            res = solve_lp(c_obj, *lp, warm=res)
            self.relaxations += 1
            if res.status != "optimal":
                return res.status, None, None, (tuple(cuts), tuple(side))
            x = res.x
            dev = const + np.einsum("tkpa,a->tkp", coef, x[:nv])
            m = x[nv:]
            viol = np.abs(dev) - (m[:, None, None] + 1e-9)
            worst = viol.reshape(t_dim, -1).max(axis=1)
            if not add_broken(x) and np.all(worst <= 1e-9):
                tight = tuple(key for key in cuts if key[3] * dev[key[:3]] >= m[key[0]] - 1e-9)
                return "optimal", res.objective, x, (tight, tuple(side))
            # each violated timestep's worst (k, ph), signed by its deviation
            t = np.flatnonzero(worst > 1e-9)
            k, ph = np.unravel_index(viol.reshape(t_dim, -1)[t].argmax(axis=1), viol.shape[1:])
            new = [key for key in zip(t.tolist(), k.tolist(), ph.tolist(),
                                      np.where(dev[t, k, ph] >= 0, 1.0, -1.0).tolist())
                   if key not in cuts]
        return "iteration_limit", None, None, (tuple(cuts), tuple(side))

    # ---- pu_star: Frank-Wolfe with certified bounds ----

    def _node_quadratic(self, fixed, free):
        fixed = np.asarray(fixed)
        on, phase = np.flatnonzero(fixed), np.arange(3)
        free_cols = (3 * np.asarray(free, dtype=int)[:, None] + phase).ravel()
        fixed_cols = (3 * on[:, None] + phase).ravel()
        v = (fixed[on, None] - 1 == phase).ravel().astype(float)
        q_ff = self.q_mat[np.ix_(free_cols, free_cols)]
        lin = self.q_lin[free_cols] + 2.0 * self.q_mat[np.ix_(free_cols, fixed_cols)] @ v
        const = (self.q_const + float(v @ self.q_mat[np.ix_(fixed_cols, fixed_cols)] @ v)
                 + float(self.q_lin[fixed_cols] @ v))
        return q_ff, lin, const

    def _solve_qp_node(self, fixed, incumbent_value, working):
        """The node's certified Frank-Wolfe bound, from its parent's side
        rows.  The first oracle call is a cold LP.  An oracle LP whose vertex
        breaks a side row is re-solved warm with the broken rows appended, so
        every vertex meets them all; the children get every side row."""
        side = list(working[1])
        lp, free, add_broken, broken = self._node_lp(fixed, side)
        q_ff, lin, const = self._node_quadratic(fixed, free)
        on_c0 = np.array(self.prog.c0)[free, None] - 1 == np.arange(3)  # (free users, 3)
        left = self.prog.delta_max - self._used(fixed)

        def f(x):
            return float(x @ q_ff @ x + lin @ x + const)

        def oracle(c, res):
            while True:
                res = solve_lp(c, *lp, warm=res)
                self.relaxations += 1
                if res.status != "optimal" or not add_broken(res.x):
                    return res

        def greedy(c):
            """The oracle LP's vertex, or None where it may differ: users move off
            c0 to their cheapest other phase, largest positive gain first."""
            cost = c.reshape(-1, 3)
            cheap = np.sort(np.where(on_c0, np.inf, cost), axis=1)
            gain = cost[on_c0] - cheap[:, 0]
            order = np.argsort(-gain, kind="stable")
            moved = order[:min(left, np.count_nonzero(gain > 0))]
            if np.any(gain == 0) or np.any(cheap[moved, 0] == cheap[moved, 1]) or (
                    left < len(gain) and gain[order[left - 1]] == gain[order[left]] > 0):
                return None
            v = on_c0.astype(float)
            v[moved] = cost[moved] == cheap[moved, :1]  # no gain is 0, so c0 is not cheapest
            return None if len(broken(v.ravel())) else v.ravel()

        start = oracle(lin, None)
        if start.status != "optimal":
            return start.status, None, None, ((), tuple(side))
        x, osc, lower = start.x, start, -np.inf
        best_x, best_ub = x, f(x)
        for _ in range(FW_MAX_ITERS):
            g = 2.0 * (q_ff @ x) + lin
            v = greedy(g) if self.prog.gamma is None else None
            self.closed_form += v is not None
            if v is None:
                # new gradient: primal phase 2 from the last tableau
                osc = oracle(g, osc)
                if osc.status != "optimal":
                    return osc.status, None, None, ((), tuple(side))
                v = osc.x
            gap, fx = float(g @ (x - v)), f(x)
            lower = max(lower, fx - gap)
            if fx < best_ub:
                best_ub, best_x = fx, x
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
        return "optimal", lower, best_x, ((), tuple(side))

    def _prune_slack(self, incumbent_value):
        return max(self.opts.abs_gap,
                   self.opts.rel_gap * max(abs(incumbent_value), 1e-12))

    # ---- leaf enumeration ----

    def _enumerate_leaf(self, fixed, inc_value=np.inf):
        """Exact minimum over every feasible completion of ``fixed``, when
        it is below ``inc_value``.

        Bounds use the columns of the leaf's zero-switch completion.  Given
        a finite ``inc_value``, ``completions`` drops each prefix whose
        ``_prefix_bound`` exceeds it while it builds them, so only rows whose
        ``_finish_bound`` may not exceed it come back, in lexicographic order
        with their sums.  These are scored in chunks of ``LEAF_CHUNK``
        consecutive ones; points that ``prog.feasible_mask`` rejects are
        masked out before scoring, and the first minimum wins.  Before that,
        two bound passes drop the rows whose lower bound exceeds the leaf's
        best so far or ``inc_value``: ``_finish_bound`` on the carried sums,
        then one per chunk on its last survivor's columns.  Ties survive
        every pass, so the first minimum is the same when below ``inc_value``.
        """
        prog = self.prog
        keep = prog._kept_columns(np.where(np.array(fixed) == 0, prog.c0, fixed))
        budget = prog.delta_max - self._used(fixed)
        prune = None
        if inc_value < np.inf:
            bound = prog._prefix_bound(fixed, keep, budget)

            def prune(pos, sums, left):
                return bound(pos, sums, left) <= inc_value
        cands, sums = completions(prog.c0, fixed, budget, prog._objective_columns[:, keep],
                                  prune)
        bounds = prog._finish_bound(sums, keep)
        best_val, best_assign = np.inf, None
        for start in range(0, len(cands), LEAF_CHUNK):
            limit = min(best_val, inc_value)
            chunk = cands[start:start + LEAF_CHUNK][bounds[start:start + LEAF_CHUNK] <= limit]
            if len(chunk):
                chunk = chunk[prog._leaf_bound(chunk, -1) <= limit]
            chunk = chunk[prog.feasible_mask(chunk)]
            if len(chunk):
                vals = prog.objective_batch(chunk)
                pick = int(np.argmin(vals))
                if vals[pick] < best_val:
                    best_val = float(vals[pick])
                    best_assign = PhaseAssignment(chunk[pick])
        return best_val, best_assign


def _raise_with_iis(labels, a_eq, b_eq, a_ub, b_ub) -> None:
    """Shrink the root's ub rows (``labels``) to an irreducible infeasible
    subset and raise: a block of rows goes while the rest stays infeasible,
    else it is halved; a single row that cannot go is needed (later deletions
    only loosen the rest), and the next block is then the whole remainder."""
    zero = np.zeros(a_eq.shape[1])
    keep, i, size = list(range(len(labels))), 0, len(labels)
    while i < len(keep):
        size = min(size, len(keep) - i)
        trial = keep[:i] + keep[i + size:]
        if solve_lp(zero, a_ub[trial], b_ub[trial], a_eq, b_eq).status != "optimal":
            keep = trial
        elif size > 1:
            size //= 2
        else:
            i, size = i + 1, len(keep)
    raise InfeasibleProgramError(
        "binary program infeasible", rows=[labels[k] for k in keep])


def branch_and_bound(prog: BinaryProgram, opts: BnBOptions | None = None) -> BnBResult:
    """Best-first search with 3-way per-user branching.

    Returns the incumbent with a proof gap within the configured
    tolerances, or the best point found when a node/time limit stops the
    search first (the status field says which).  The limits are checked
    only after the root node, so a stopped search has a finite bound.
    """
    opts = opts or BnBOptions()
    solver = _BnBSolver(prog, opts)
    a_eq, b_eq, a_ub, b_ub, _ = solver._node_base_rows((0,) * prog.n_users)
    if prog.n_users == 0:
        # no variables: a row holds when its rhs does, as in feasible_mask
        broken = [label for label, rhs in zip(prog.rows[2], b_ub) if rhs < -1e-9]
        if broken:
            raise InfeasibleProgramError(
                "the baseline configuration breaks these rows", rows=broken)
        value = prog.objective_at(PhaseAssignment(()))
        return BnBResult(assignment=PhaseAssignment(()), objective=value,
                         bound=value, gap=0.0, nodes=1, status="optimal")
    root_check = solve_lp(np.zeros(a_eq.shape[1]), a_ub, b_ub, a_eq, b_eq)
    if root_check.status == "infeasible":
        _raise_with_iis(prog.rows[2], a_eq, b_eq, a_ub, b_ub)
    started = time.monotonic()

    incumbent, inc_value = None, np.inf
    for cand in (PhaseAssignment(prog.c0), opts.initial_incumbent):
        if cand is not None and prog.point_feasible(cand):
            val = prog.objective_at(cand)
            if val < inc_value:
                incumbent, inc_value = cand, val

    counter = itertools.count()
    # (bound, seq, fixed phases or 0 for free, inherited (cuts, side rows))
    heap = [(-np.inf, next(counter), (0,) * prog.n_users, ((), ()))]
    nodes = 0
    status = "optimal"
    final_bound = None

    while heap:
        bound, _, fixed, working = heapq.heappop(heap)
        if bound >= inc_value - solver._prune_slack(inc_value):
            final_bound = bound  # remaining nodes cannot beat the incumbent
            break
        if nodes >= opts.node_limit:
            status, final_bound = "node_limit", bound
            break
        if opts.time_limit_s is not None and nodes \
                and time.monotonic() - started > opts.time_limit_s:
            status, final_bound = "time_limit", bound
            break
        nodes += 1

        n_free = fixed.count(0)
        if completion_count(n_free, prog.delta_max - solver._used(fixed)) \
                <= opts.leaf_enum_cap:
            val, assign = solver._enumerate_leaf(fixed, inc_value)
            if assign is not None and val < inc_value:
                inc_value, incumbent = val, assign
            continue

        if prog.objective_kind == "pvur_star":
            st, rel_bound, x, working = solver._solve_lp_node(fixed, working)
        else:
            st, rel_bound, x, working = solver._solve_qp_node(fixed, inc_value, working)
        if st == "infeasible":
            continue
        if st != "optimal" or rel_bound is None:
            rel_bound, x = bound, None
        rel_bound = max(rel_bound, bound)
        if rel_bound >= inc_value - solver._prune_slack(inc_value):
            continue

        free = [i for i, ph in enumerate(fixed) if ph == 0]
        branch_user = free[0]
        if x is not None:
            d_u = x[:3 * len(free)].reshape(-1, 3)
            score = 1.0 - d_u.max(axis=1)
            frac_score, branch_user = float(score.max()), free[int(score.argmax())]
            rounded = np.array(fixed)
            rounded[free] = d_u.argmax(axis=1) + 1
            cand = PhaseAssignment(tuple(rounded.tolist()))
            if prog.point_feasible(cand):
                val = prog.objective_at(cand)
                if val < inc_value:
                    inc_value, incumbent = val, cand
            if frac_score <= 1e-6 and prog.objective_kind == "pvur_star":
                # integral LP solution: the node bound equals its objective
                continue
        for ph in (1, 2, 3):
            child = list(fixed)
            child[branch_user] = ph
            heapq.heappush(heap, (rel_bound, next(counter), tuple(child), working))

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
                     nodes=nodes, status=status, relaxations_solved=solver.relaxations,
                     closed_form_vertices=solver.closed_form)
