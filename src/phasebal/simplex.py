"""Dense two-phase tableau simplex for small LP relaxations.

Solves  min c.x  s.t.  a_ub.x <= b_ub,  a_eq.x = b_eq,  x >= 0.

Phase 1 drives artificial variables out with the usual auxiliary
objective; redundant equality rows left with a zero-level artificial are
dropped.  Pivoting is Dantzig's rule with a switch to Bland's rule after
a run of degenerate steps, which rules out cycling.  Everything is dense
numpy; the LPs this package builds stay in the hundreds of rows.

Warm start: an optimal result keeps its final tableau (artificial columns
removed; none is basic once phase 1 ends), its basis, its costs and the
rows it was solved with.  ``solve_lp(..., warm=prev)`` starts from that
state when the equality rows and the leading ``<=`` rows are equal to
``prev``'s (checked with ``np.array_equal``).  Each appended ``<=`` row is
written in the current basis with its own slack basic; dual simplex pivots
under ``prev``'s costs, for which the basis is still dual feasible, restore
primal feasibility, and primal phase 2 then runs on the new costs.  Any
warm outcome other than optimal falls back to the cold two-phase solve, so
every other status comes from the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-9
_DEGENERATE_SWITCH = 40


@dataclass(frozen=True, eq=False)
class _WarmState:
    """What a later solve needs to start from an optimal tableau."""

    tab: np.ndarray     # rows x (n + m_ub + 1): structurals, slacks, rhs
    basis: np.ndarray
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray | None
    objective: float | None
    iterations: int
    warm_state: _WarmState | None = field(default=None, repr=False)


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _ratio_row(tab: np.ndarray, basis: np.ndarray, col: int,
               bland: bool) -> int | None:
    positive = tab[:, col] > _TOL
    if not np.any(positive):
        return None
    ratios = np.full(tab.shape[0], np.inf)
    ratios[positive] = tab[positive, -1] / tab[positive, col]
    best = ratios.min()
    candidates = np.flatnonzero(ratios <= best + _TOL)
    if bland:
        # anti-cycling: among ties, evict the lowest-index basic variable
        return int(candidates[np.argmin(basis[candidates])])
    # otherwise prefer the largest pivot element (stability, fewer stalls)
    return int(candidates[np.argmax(tab[candidates, col])])


def _iterate(tab: np.ndarray, basis: np.ndarray, costs: np.ndarray,
             allowed: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Run simplex pivots until optimal/unbounded; returns (status, iters)."""
    iters = 0
    degenerate_run = 0
    while iters < max_iter:
        reduced = costs - costs[basis] @ tab[:, :-1]
        reduced[~allowed] = 0.0
        if np.all(reduced >= -_TOL):
            return "optimal", iters
        bland = degenerate_run >= _DEGENERATE_SWITCH
        if bland:  # Bland: first improving column, guarantees termination
            col = int(np.flatnonzero(reduced < -_TOL)[0])
        else:
            col = int(np.argmin(reduced))
        row = _ratio_row(tab, basis, col, bland)
        if row is None:
            return "unbounded", iters
        step = tab[row, -1] / tab[row, col]
        degenerate_run = degenerate_run + 1 if step <= _TOL else 0
        _pivot(tab, basis, row, col)
        iters += 1
    return "iteration_limit", iters


def _dual_iterate(tab: np.ndarray, basis: np.ndarray, costs: np.ndarray,
                  max_iter: int) -> tuple[str, int]:
    """Dual simplex pivots from a dual feasible basis until the rhs is
    nonnegative; returns (status, iters).  The most negative rhs leaves;
    after a run of dual degenerate steps, Bland's rule (lowest basic index
    leaves, lowest column enters) rules out cycling."""
    iters = 0
    degenerate_run = 0
    while iters < max_iter:
        rhs = tab[:, -1]
        short = np.flatnonzero(rhs < -_TOL)
        if not len(short):
            return "optimal", iters
        bland = degenerate_run >= _DEGENERATE_SWITCH
        row = int(short[np.argmin(basis[short])] if bland else short[np.argmin(rhs[short])])
        entries = tab[row, :-1]
        negative = entries < -_TOL
        if not np.any(negative):
            return "infeasible", iters
        reduced = np.maximum(costs - costs[basis] @ tab[:, :-1], 0.0)
        ratios = np.full(len(entries), np.inf)
        ratios[negative] = reduced[negative] / -entries[negative]
        best = ratios.min()
        # np.argmin and flatnonzero both pick the lowest tied column
        col = int(np.argmin(ratios) if not bland
                  else np.flatnonzero(ratios <= best + _TOL)[0])
        degenerate_run = degenerate_run + 1 if best <= _TOL else 0
        _pivot(tab, basis, row, col)
        iters += 1
    return "iteration_limit", iters


def _warm_solve(c, a_ub, b_ub, a_eq, b_eq, warm: _WarmState,
                max_iter: int) -> tuple[LpResult | None, int]:
    """Re-solve from ``warm``; returns (result or None, pivots spent)."""
    m_prev = warm.a_ub.shape[0]
    if not (c.shape == warm.c.shape and a_ub.shape[0] >= m_prev
            and np.array_equal(a_eq, warm.a_eq) and np.array_equal(b_eq, warm.b_eq)
            and np.array_equal(a_ub[:m_prev], warm.a_ub)
            and np.array_equal(b_ub[:m_prev], warm.b_ub)):
        return None, 0
    n = c.shape[0]
    k = a_ub.shape[0] - m_prev
    rows, cols = warm.tab.shape[0], warm.tab.shape[1] - 1
    tab = np.zeros((rows + k, cols + k + 1))
    tab[:rows, :cols] = warm.tab[:, :-1]
    tab[:rows, -1] = warm.tab[:, -1]
    basis = np.concatenate([warm.basis, cols + np.arange(k)])
    iterations = 0
    if k:
        new = tab[rows:]
        new[:, :n] = a_ub[m_prev:]
        new[:, cols:cols + k] = np.eye(k)
        new[:, -1] = b_ub[m_prev:]
        # eliminate the basic columns, leaving each new slack basic
        new -= new[:, warm.basis] @ tab[:rows]
        new[:, warm.basis] = 0.0
        costs = np.zeros(cols + k)
        costs[:n] = warm.c
        status, iterations = _dual_iterate(tab, basis, costs, max_iter)
        if status != "optimal":
            return None, iterations
    costs = np.zeros(cols + k)
    costs[:n] = c
    status, it = _iterate(tab, basis, costs, np.ones(cols + k, dtype=bool),
                          max_iter - iterations)
    iterations += it
    if status != "optimal":
        return None, iterations
    return _optimal(tab, basis, c, a_ub, b_ub, a_eq, b_eq, iterations), iterations


def _optimal(tab, basis, c, a_ub, b_ub, a_eq, b_eq, iterations) -> LpResult:
    """The optimal result of a tableau whose columns start with the n
    structurals and the ``<=`` slacks; later (artificial) columns are
    nonbasic and dropped from the warm state."""
    n, m_ub = c.shape[0], a_ub.shape[0]
    x = np.zeros(n + m_ub)
    x[basis] = tab[:, -1]
    x = x[:n]
    keep = np.r_[0:n + m_ub, tab.shape[1] - 1]
    # the inputs are copied so that a caller editing them in place cannot
    # make a later array_equal check pass against rows this tableau never saw
    warm = _WarmState(tab[:, keep], basis, c.copy(), a_ub.copy(), b_ub.copy(),
                      a_eq.copy(), b_eq.copy())
    return LpResult("optimal", x, float(c @ x), iterations, warm)


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             max_iter: int | None = None, warm: LpResult | None = None) -> LpResult:
    """min c.x s.t. a_ub.x <= b_ub, a_eq.x = b_eq, x >= 0.

    ``warm`` is an earlier result to start from (see the module docstring);
    it is used only when its rows match, and only an optimal warm outcome
    is returned.  Pivots spent on a discarded warm attempt are counted in
    ``iterations``.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    if max_iter is None:
        max_iter = 200 + 40 * (m + n)
    spent = 0
    if warm is not None and warm.warm_state is not None:
        res, spent = _warm_solve(c, a_ub, b_ub, a_eq, b_eq, warm.warm_state, max_iter)
        if res is not None:
            return res
    res = _cold_solve(c, a_ub, b_ub, a_eq, b_eq, max_iter)
    res.iterations += spent
    return res


def _cold_solve(c, a_ub, b_ub, a_eq, b_eq, max_iter: int) -> LpResult:
    n = c.shape[0]
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    a = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq])
    slack = np.zeros((m, m_ub))
    slack[:m_ub, :] = np.eye(m_ub)
    flip = b < 0
    a[flip] *= -1.0
    b = np.abs(b)
    slack[flip] *= -1.0

    # artificials wherever the slack column cannot start basic
    needs_art = np.ones(m, dtype=bool)
    needs_art[:m_ub] = flip[:m_ub]
    art_rows = np.flatnonzero(needs_art)
    n_art = len(art_rows)
    art = np.zeros((m, n_art))
    for k, r in enumerate(art_rows):
        art[r, k] = 1.0

    tab = np.hstack([a, slack, art, b[:, None]])
    total = n + m_ub + n_art
    basis = np.empty(m, dtype=int)
    basis[:m_ub] = n + np.arange(m_ub)
    for k, r in enumerate(art_rows):
        basis[r] = n + m_ub + k

    allowed = np.ones(total, dtype=bool)
    iterations = 0
    if n_art:
        phase1 = np.zeros(total)
        phase1[n + m_ub:] = 1.0
        status, it = _iterate(tab, basis, phase1, allowed, max_iter)
        iterations += it
        if status == "iteration_limit":
            return LpResult(status, None, None, iterations)
        if float(phase1[basis] @ tab[:, -1]) > 1e-7:
            return LpResult("infeasible", None, None, iterations)
        # pivot lingering zero-level artificials out, or drop their rows
        drop = []
        for r in range(m):
            if basis[r] < n + m_ub:
                continue
            entry = np.flatnonzero(np.abs(tab[r, : n + m_ub]) > _TOL)
            if len(entry):
                _pivot(tab, basis, r, int(entry[0]))
                iterations += 1
            else:
                drop.append(r)
        if drop:
            keep = np.setdiff1d(np.arange(m), drop)
            tab = tab[keep]
            basis = basis[keep]
        allowed[n + m_ub:] = False

    costs = np.zeros(total)
    costs[:n] = c
    status, it = _iterate(tab, basis, costs, allowed, max_iter - iterations)
    iterations += it
    if status != "optimal":
        return LpResult(status, None, None, iterations)
    return _optimal(tab, basis, c, a_ub, b_ub, a_eq, b_eq, iterations)
