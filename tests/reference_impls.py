"""Independent reference implementations used only as test oracles.

Nothing here shares code paths with the package solvers: the power flow
oracle is a Newton-Raphson iteration on the real/imaginary mismatch system
with a finite-difference Jacobian, the loss oracle recomputes I^2 R
branch by branch from first principles, and the metric oracle evaluates
every (location, timestep) one at a time in plain Python, with a
flow denominator found by walking each user's path to the reference.  The
per-call metric formulas share only the location lookups and
``metrics.denominator`` with the package: they resolve the locations on
every call and reduce through numpy's wrappers, and the package's values
must equal theirs bit for bit, as they must equal the ``*_reduce``
formulas' on any phase array.  The sensitivity oracle sweeps the linear
model once per (user, phase), one branch at a time through per-branch
dicts.  The injection oracle adds one
user at a time.  The simplex pivot oracle is each pivot step in its plain
form: masked ratio assignment, ``np.flatnonzero`` choices and an
``np.outer`` update, with the Bland switch passed in.  The operational
check oracle reduces each bus's phases to their range and each branch's
to its peak before it compares them with the band and the limits.
"""

import math
import warnings

import numpy as np

from phasebal.dropmatrices import ab_matrices
from phasebal.errors import MetricError, ValidationError
from phasebal.metrics import ZERO_MEAN_PU, denominator

REF = np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])


def ybus_by_hand(feeder):
    """Nodal admittance assembled independently (loops, explicit inverse)."""
    n = 3 * len(feeder.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in feeder.branches:
        z = (br.r + 1j * br.x) / feeder.z_base
        yb = np.linalg.inv(z)
        bi = feeder.bus_index(br.from_bus)
        bj = feeder.bus_index(br.to_bus)
        for a in range(3):
            for b in range(3):
                y[3 * bi + a, 3 * bi + b] += yb[a, b]
                y[3 * bj + a, 3 * bj + b] += yb[a, b]
                y[3 * bi + a, 3 * bj + b] -= yb[a, b]
                y[3 * bj + a, 3 * bi + b] -= yb[a, b]
    return y


def newton_pf(feeder, assignment, loads, t, tol=1e-12, max_iter=60):
    """Newton-Raphson power flow in rectangular coordinates.

    Unknowns are the non-reference complex voltages split into real and
    imaginary parts; the Jacobian is formed by forward differences.
    Returns the full (n_buses, 3) complex voltage matrix.
    """
    y = ybus_by_hand(feeder)
    n_bus = len(feeder.buses)
    ref = feeder.bus_index(feeder.reference_bus)
    idx = np.array([k for k in range(3 * n_bus) if k // 3 != ref])
    s_bus = injection_series_sequential(feeder, assignment, loads)[t]
    s_inj = -(s_bus.reshape(-1) / feeder.base_power)[idx]

    u_full = np.tile(REF, n_bus)

    def mismatch(xn):
        u = u_full.copy()
        u[idx] = xn[: len(idx)] + 1j * xn[len(idx):]
        s_calc = (u * np.conj(y @ u))[idx]
        f = s_calc - s_inj
        return np.concatenate([f.real, f.imag])

    x = np.concatenate([u_full[idx].real, u_full[idx].imag])
    for _ in range(max_iter):
        f = mismatch(x)
        if np.max(np.abs(f)) < tol:
            break
        jac = np.empty((len(f), len(x)))
        h = 1e-7
        for k in range(len(x)):
            xp = x.copy()
            xp[k] += h
            jac[:, k] = (mismatch(xp) - f) / h
        x = x - np.linalg.solve(jac, f)
    else:
        raise RuntimeError("newton oracle did not converge")
    u_full[idx] = x[: len(idx)] + 1j * x[len(idx):]
    return u_full.reshape(n_bus, 3)


def i2r_losses_percent(feeder, u):
    """Loss fraction recomputed elementwise as sum(I^2 R) / P_in."""
    loss_w = 0.0
    for br in feeder.branches:
        z = (br.r + 1j * br.x) / feeder.z_base
        ui = u[feeder.bus_index(br.from_bus)]
        uj = u[feeder.bus_index(br.to_bus)]
        i_ph = np.linalg.inv(z) @ (ui - uj)
        # per-phase I^2 R with cross-phase resistive coupling
        loss_w += float(np.real(np.conj(i_ph) @ (z.real @ i_ph)))
    p_in = 0.0
    for br in feeder.reference_branches():
        ui = u[feeder.bus_index(br.from_bus)]
        uj = u[feeder.bus_index(br.to_bus)]
        z = (br.r + 1j * br.x) / feeder.z_base
        i_ph = np.linalg.inv(z) @ (ui - uj)
        p_in += float(np.real(np.sum(ui * np.conj(i_ph))))
    return 100.0 * loss_w / p_in


def check_operational_per_step(feeder, constraints, solutions):
    """Operational violations with every bus's phases reduced to their
    (min, max) and every branch's to its peak before any comparison; the
    per-branch limits are recomputed from the branches."""
    mags = np.abs(solutions.u)
    lo, hi = mags.min(axis=2), mags.max(axis=2)
    bus_bad = (lo < constraints.v_min) | (hi > constraints.v_max)
    bus_bad[:, feeder.bus_index(feeder.reference_bus)] = False
    limits = np.array([[np.inf if lim is None else lim / base for lim, base in
                        ((br.power_limit_va, feeder.base_power), (br.ampacity_a, feeder.i_base))]
                       for br in feeder.branches])
    peak = np.stack([np.abs(solutions.s_from).max(axis=2),
                     np.abs(solutions.current).max(axis=2)], axis=2)  # (T, branch, kind)
    over = peak > limits
    violations = []
    for t in np.flatnonzero(~solutions.converged | bus_bad.any(axis=1) | over.any(axis=(1, 2))):
        if not solutions.converged[t]:
            violations.append(f"t={t}: power flow did not converge")
            continue
        for b in np.flatnonzero(bus_bad[t]):
            violations.append(
                f"t={t}: bus {feeder.buses[b]} voltage [{lo[t, b]:.4f}, {hi[t, b]:.4f}] "
                f"outside [{constraints.v_min}, {constraints.v_max}] pu")
        for k, kind in zip(*np.nonzero(over[t])):
            violations.append(
                f"t={t}: branch {feeder.branches[k].key} {('apparent power', 'current')[kind]} "
                f"{peak[t, k, kind]:.4f} pu exceeds {limits[k, kind]:.4f} pu")
    return tuple(violations)


def _spread_pct(values, mean):
    return 100.0 * max(abs(1.0 - v / mean) for v in values)


def _metric_at(metric, values, denom):
    """One metric on one phase 3-vector, in plain Python; None if undefined."""
    values = [float(v) for v in values]
    mean = sum(values) / 3.0
    if metric == "pvur":
        if min(values) <= 0.0:
            raise ValueError("pvur needs positive magnitudes")
        return _spread_pct(values, mean)
    if metric == "pvur_star":
        return 100.0 * max(abs(v - mean) for v in values)
    if metric in ("iu", "pu"):
        return None if abs(mean) < 1e-6 else _spread_pct(values, mean)
    if denom is None or denom <= 0.0:
        return None
    cyclic = sum((values[k] - values[(k + 1) % 3]) ** 2 for k in range(3))
    return 100.0 * cyclic / denom ** 2


def denominator_by_walk(feeder, loads, branch):
    """One third of the time-mean demand, per-unit, of the users whose walk
    from their bus up to the reference crosses ``branch``; each mean is an
    exactly rounded ``math.fsum`` over the horizon."""
    parent = {br.to_bus: br for br in feeder.branches}
    total = 0.0
    for u in feeder.users:
        bus = u.bus
        while bus != feeder.reference_bus and parent[bus].key != branch.key:
            bus = parent[bus].from_bus
        if bus != feeder.reference_bus:
            total += math.fsum(loads.p[:, loads.column(u.id)]) / loads.horizon
    return total / feeder.base_power / 3.0


def metric_values_loop(spec, feeder, loads, solutions=None, state=None):
    """(locations, T) metric values, one (location, timestep) at a time.

    Reads the exact route from a sequence of per-timestep PF solutions
    (currents recomputed from the voltages with an explicit inverse) or
    the linear route from an Ld3fState.  NaN marks an undefined value.
    """
    horizon = len(solutions) if solutions is not None else state.omega.shape[0]
    if spec.is_voltage_metric:
        locations = [feeder.bus_index(b) for b in spec.buses_for(feeder)]
    else:
        locations = list(spec.branches_for(feeder))
    vals = np.empty((len(locations), horizon))
    for k, loc in enumerate(locations):
        denom = denominator_by_walk(feeder, loads, loc) if spec.metric == "pu_star" else None
        for t in range(horizon):
            if spec.is_voltage_metric:
                if solutions is not None:
                    phases = np.abs(solutions[t].u[loc])
                    if spec.metric == "pvur_star":
                        phases = phases ** 2
                else:
                    phases = state.omega[t, loc]
                    if spec.metric == "pvur":
                        phases = np.sqrt(phases)
            elif state is not None:
                phases = state.flow_p[t, feeder.branch_index(loc)]
            else:
                u = solutions[t].u
                ui = u[feeder.bus_index(loc.from_bus)]
                uj = u[feeder.bus_index(loc.to_bus)]
                current = np.linalg.inv((loc.r + 1j * loc.x) / feeder.z_base) @ (ui - uj)
                phases = (np.abs(current) if spec.metric == "iu"
                          else np.real(ui * np.conj(current)))
            value = _metric_at(spec.metric, phases, denom)
            vals[k, t] = np.nan if value is None else value
    return vals


# -- the per-call metric formulas ----------------------------------------------
# Each call looks its locations up on the feeder, computes pu_star's
# denominators afresh and reduces through numpy's ``mean``/``max``/``sum``
# wrappers, with ``np.roll`` for the cyclic pairs and a masked pu_star
# division.  The package resolves the locations once per Problem and calls
# the ufunc reductions directly; its values must equal these bit for bit.


def _pvur_per_call(m):
    if np.any(m <= 0.0):
        raise MetricError(f"pvur needs positive magnitudes, got minimum {m.min():g}")
    return np.max(np.abs(1.0 - m / m.mean(axis=-1, keepdims=True)), axis=-1) * 100.0


def _pvur_star_per_call(w):
    return np.max(np.abs(w - w.mean(axis=-1, keepdims=True)), axis=-1) * 100.0


def _flow_values_per_call(spec, feeder, loads, flows_at):
    branches = spec.branches_for(feeder)
    v = flows_at([feeder.branch_index(br) for br in branches])
    if spec.metric == "pu_star":
        d = np.array([denominator(feeder, loads, br) for br in branches])
        diffs = v - np.roll(v, -1, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d > 0.0, np.sum(diffs ** 2, axis=-1) / d ** 2 * 100.0, np.nan).T
    mean = v.mean(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.max(np.abs(1.0 - v / mean), axis=-1) * 100.0
    return np.where(np.abs(mean[..., 0]) < ZERO_MEAN_PU, np.nan, rate).T


def metric_values_exact_per_call(spec, feeder, loads, solutions):
    if spec.is_voltage_metric:
        mags = np.abs(solutions.u[:, [feeder.bus_index(b) for b in spec.buses_for(feeder)]])
        return (_pvur_per_call(mags) if spec.metric == "pvur"
                else _pvur_star_per_call(mags ** 2)).T
    return _flow_values_per_call(spec, feeder, loads, lambda idx: (
        np.abs(solutions.current[:, idx]) if spec.metric == "iu"
        else np.real(solutions.s_from[:, idx])))


def metric_values_ld3f_per_call(spec, feeder, loads, state):
    if spec.metric == "iu":
        raise ValidationError("the linear model carries no currents")
    if spec.is_voltage_metric:
        buses = spec.buses_for(feeder)
        w = state.omega[:, [feeder.bus_index(b) for b in buses]]
        if spec.metric == "pvur_star":
            return _pvur_star_per_call(w).T
        bad = np.any(w <= 0.0, axis=(0, 2))
        if np.any(bad):
            raise MetricError(f"omega not positive at bus {buses[np.argmax(bad)]}")
        return _pvur_per_call(np.sqrt(w)).T
    return _flow_values_per_call(spec, feeder, loads, lambda idx: state.flow_p[:, idx])


def aggregate_per_call(spec, values):
    """Time mean of the worst location (voltage) or location mean (flow)
    over the defined timesteps; warns when it drops one."""
    per_t = values.max(axis=0) if spec.is_voltage_metric else values.mean(axis=0)
    keep = ~np.isnan(per_t)
    if not np.all(keep):
        warnings.warn(
            f"skipping {int((~keep).sum())} of {len(per_t)} timesteps with "
            f"undefined flow metric (near-zero phase mean)", stacklevel=2)
        per_t = per_t[keep]
        if len(per_t) == 0:
            raise MetricError("metric undefined at every timestep")
    return float(per_t.mean())


# The four per-call metric formulas as ufunc reductions over the phase axis,
# the form ``metrics`` had before its three-term phase kernels; the package's
# values must equal these bit for bit on any input.


def _phase_mean_reduce(x):
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def pvur_values_reduce(u_mags):
    m = np.asarray(u_mags, dtype=float)
    if np.any(m <= 0.0):
        raise MetricError(f"pvur needs positive magnitudes, got minimum {m.min():g}")
    return np.maximum.reduce(np.abs(1.0 - m / _phase_mean_reduce(m)), axis=-1) * 100.0


def pvur_star_values_reduce(omega):
    w = np.asarray(omega, dtype=float)
    return np.maximum.reduce(np.abs(w - _phase_mean_reduce(w)), axis=-1) * 100.0


def unbalance_rate_values_reduce(values):
    v = np.asarray(values, dtype=float)
    mean = _phase_mean_reduce(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.maximum.reduce(np.abs(1.0 - v / mean), axis=-1) * 100.0
    return np.where(np.abs(mean[..., 0]) < ZERO_MEAN_PU, np.nan, rate)


def p_u_star_values_reduce(p_flows, denom):
    p, d = np.asarray(p_flows, dtype=float), np.asarray(denom, dtype=float)
    diffs = p - p[..., [1, 2, 0]]
    d2 = np.where(d > 0.0, d ** 2, np.nan)
    return np.add.reduce(diffs ** 2, axis=-1) / d2 * 100.0


def _one_hot(phases):
    return (np.asarray(phases)[..., None] == np.array([1, 2, 3])).astype(float)


def gather_sum_sequential(columns, phases):
    """Σ_u columns[3u + phase_u - 1] for each row, adding one user at a time."""
    phases = np.asarray(phases)
    out = np.zeros((len(phases), columns.shape[1]))
    for r, row in enumerate(phases):
        for u, ph in enumerate(row):
            out[r] = out[r] + columns[3 * u + int(ph) - 1]
    return out


def _objective_columns(prog):
    n = prog.coef.shape[3]
    return np.stack([prog.coef[..., u, f].reshape(-1) for u in range(n) for f in range(3)])


def objective_sequential(prog, phases):
    """The program's objective, one row at a time from a sequential user sum."""
    sums = gather_sum_sequential(_objective_columns(prog), phases)
    out = []
    for s in sums:
        if prog.objective_kind == "pvur_star":
            dev = np.abs(prog.const.reshape(-1) + s)
            out.append(dev.reshape(prog.horizon, -1).max(axis=1).mean())
        else:
            diff = (prog.const.reshape(-1) + s) ** 2
            per_branch = diff.reshape(prog.horizon, -1, 3).sum(axis=2) * prog.branch_weight
            out.append(per_branch.mean(axis=1).mean())
    return np.array(out)


def objective_einsum(prog, phases):
    """The program's objective as a dense contraction over one-hot matrices."""
    deltas = _one_hot(phases)
    if prog.objective_kind == "pvur_star":
        dev = prog.const[None] + np.einsum("tkpuf,muf->mtkp", prog.coef, deltas)
        return np.abs(dev).max(axis=(2, 3)).mean(axis=1)
    diff = prog.const[None] + np.einsum("tbjuf,muf->mtbj", prog.coef, deltas)
    per_branch = (diff ** 2).sum(axis=3) * prog.branch_weight[None, None, :]
    return per_branch.mean(axis=2).mean(axis=1)


def side_rows_sequential(prog, phases):
    """(M, R) left-hand sides of the side rows from a sequential user sum."""
    columns = np.stack([coef.reshape(-1) for coef in prog.side_coef], axis=1)
    return gather_sum_sequential(columns, phases)


def side_rows_einsum(prog, phases):
    """(M, R) left-hand sides of the side rows as dense one-hot contractions."""
    return np.einsum("muf,ruf->mr", _one_hot(phases), prog.side_coef)


def node_base_rows_loop(prog, fixed):
    """(a_eq, b_eq, a_ub, b_ub, labels, free) of a node, row by row: the
    one-hot rows, the budget, the phase-count rows when gamma is enforced
    and each side row less its fixed users' part, added in user order."""
    free = [i for i, ph in enumerate(fixed) if ph == 0]
    nv = 3 * len(free)
    a_eq = np.zeros((len(free), nv))
    for r in range(len(free)):
        a_eq[r, 3 * r: 3 * r + 3] = 1.0
    used = sum(1 for ph, p0 in zip(fixed, prog.c0) if ph not in (0, p0))
    budget_row = np.zeros(nv)
    for r, i in enumerate(free):
        budget_row[3 * r + prog.c0[i] - 1] = -1.0
    rows, rhs, labels = [budget_row], [prog.delta_max - used - len(free)], ["budget"]
    if prog.gamma is not None:
        counts = list(prog.fixed_phase_counts)
        for ph in fixed:
            if ph:
                counts[ph - 1] += 1
        lo, hi = prog.gamma
        for ph in range(3):
            row = np.zeros(nv)
            row[ph::3] = 1.0
            rows += [row, -row]
            rhs += [hi - counts[ph], counts[ph] - lo]
            labels += [f"count_upp_ph{ph + 1}", f"count_low_ph{ph + 1}"]
    for label, coef, srhs in zip(prog.side_labels, prog.side_coef, prog.side_rhs):
        part = 0.0
        for i, ph in enumerate(fixed):
            if ph:
                part += float(coef[i, ph - 1])
        rows.append(coef[free].reshape(-1))
        rhs.append(srhs - part)
        labels.append(label)
    return a_eq, np.ones(len(free)), np.array(rows), np.array(rhs, dtype=float), labels, free


def sweep_by_branch(feeder, p_bus, q_bus):
    """LinDist3Flow sweep of one (T, n_buses, 3) load set, branch by branch.

    Returns omega (T, n_buses, 3) and the active and reactive flows, each
    (T, n_branches, 3) in feeder.branches order.
    """
    children = {b: [] for b in feeder.buses}
    for br in feeder.branches:
        children[br.from_bus].append(br)
    topo, reached = [], [feeder.reference_bus]  # root-first, breadth first
    for bus in reached:
        topo += children[bus]
        reached += [br.to_bus for br in children[bus]]
    flow_p, flow_q = {}, {}
    for br in reversed(topo):
        j = feeder.bus_index(br.to_bus)
        p = p_bus[:, j, :].copy()
        q = q_bus[:, j, :].copy()
        for child in children[br.to_bus]:
            p += flow_p[child.key]
            q += flow_q[child.key]
        flow_p[br.key] = p
        flow_q[br.key] = q
    omega = np.empty(p_bus.shape)
    omega[:, feeder.bus_index(feeder.reference_bus), :] = 1.0
    for br in topo:
        a, b = ab_matrices(feeder.z_pu(br).real, feeder.z_pu(br).imag)
        i = feeder.bus_index(br.from_bus)
        j = feeder.bus_index(br.to_bus)
        omega[:, j, :] = omega[:, i, :] - flow_p[br.key] @ a.T - flow_q[br.key] @ b.T
    return (omega, np.stack([flow_p[br.key] for br in feeder.branches], axis=1),
            np.stack([flow_q[br.key] for br in feeder.branches], axis=1))


def sensitivity_loop(feeder, loads):
    """(omega0, d_omega, flow0_p, flow0_q, d_flow_p, d_flow_q) of the affine
    elimination, one sweep per (reconfigurable user, phase)."""
    shape = (loads.horizon, len(feeder.buses), 3)
    p_bus, q_bus = np.zeros(shape), np.zeros(shape)
    for u in feeder.users:
        if u.reconfigurable:
            continue
        col = loads.column(u.id)
        b = feeder.bus_index(u.bus)
        p_bus[:, b, u.original_phase - 1] += loads.p[:, col] / feeder.base_power
        q_bus[:, b, u.original_phase - 1] += loads.q[:, col] / feeder.base_power
    omega0, flow0_p, flow0_q = sweep_by_branch(feeder, p_bus, q_bus)
    pr = feeder.reconfigurable_users()
    d_omega = np.zeros((len(pr), 3) + shape)
    d_flow_p = np.zeros((len(pr), 3, loads.horizon, len(feeder.branches), 3))
    d_flow_q = np.zeros_like(d_flow_p)
    for i, u in enumerate(pr):
        for ph in (1, 2, 3):
            p_bus, q_bus = np.zeros(shape), np.zeros(shape)
            col = loads.column(u.id)
            b = feeder.bus_index(u.bus)
            p_bus[:, b, ph - 1] = loads.p[:, col] / feeder.base_power
            q_bus[:, b, ph - 1] = loads.q[:, col] / feeder.base_power
            omega, d_flow_p[i, ph - 1], d_flow_q[i, ph - 1] = sweep_by_branch(
                feeder, p_bus, q_bus)
            d_omega[i, ph - 1] = omega - 1.0
    return omega0, d_omega, flow0_p, flow0_q, d_flow_p, d_flow_q


def user_phases(feeder, assignment):
    """Phase of every user under ``assignment`` (fixed users keep their own)."""
    pr = feeder.reconfigurable_users()
    if len(assignment) != len(pr):
        raise ValidationError(
            f"assignment has {len(assignment)} entries for {len(pr)} reconfigurable users")
    phases = {u.id: u.original_phase for u in feeder.users}
    for u, p in zip(pr, assignment.phases):
        phases[u.id] = p
    return phases


def injection_series_sequential(feeder, assignment, loads):
    """(T, n_buses, 3) complex injections, adding one user at a time in
    ``feeder.users`` order."""
    phases = user_phases(feeder, assignment)
    out = np.zeros((loads.horizon, len(feeder.buses), 3), dtype=complex)
    for u in feeder.users:
        col = loads.column(u.id)
        out[:, feeder.bus_index(u.bus), phases[u.id] - 1] += (
            loads.p[:, col] + 1j * loads.q[:, col])
    return out


# -- simplex pivots in their plain form (tolerance as in phasebal.simplex) ----

PIVOT_TOL = 1e-9


def pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def ratio_row(tab, basis, col, bland):
    positive = tab[:, col] > PIVOT_TOL
    if not np.any(positive):
        return None
    ratios = np.full(tab.shape[0], np.inf)
    ratios[positive] = tab[positive, -1] / tab[positive, col]
    best = ratios.min()
    candidates = np.flatnonzero(ratios <= best + PIVOT_TOL)
    if bland:
        return int(candidates[np.argmin(basis[candidates])])
    return int(candidates[np.argmax(tab[candidates, col])])


def iterate(tab, basis, costs, allowed, max_iter, switch):
    """Primal pivots; Bland's rule after ``switch`` degenerate steps."""
    iters = 0
    degenerate_run = 0
    while iters < max_iter:
        reduced = costs - costs[basis] @ tab[:, :-1]
        reduced[~allowed] = 0.0
        if np.all(reduced >= -PIVOT_TOL):
            return "optimal", iters
        bland = degenerate_run >= switch
        if bland:
            col = int(np.flatnonzero(reduced < -PIVOT_TOL)[0])
        else:
            col = int(np.argmin(reduced))
        row = ratio_row(tab, basis, col, bland)
        if row is None:
            return "unbounded", iters
        step = tab[row, -1] / tab[row, col]
        degenerate_run = degenerate_run + 1 if step <= PIVOT_TOL else 0
        pivot(tab, basis, row, col)
        iters += 1
    return "iteration_limit", iters


def dual_iterate(tab, basis, costs, max_iter, switch):
    """Dual pivots; Bland's rule after ``switch`` dual degenerate steps."""
    iters = 0
    degenerate_run = 0
    while iters < max_iter:
        rhs = tab[:, -1]
        short = np.flatnonzero(rhs < -PIVOT_TOL)
        if not len(short):
            return "optimal", iters
        bland = degenerate_run >= switch
        row = int(short[np.argmin(basis[short])] if bland else short[np.argmin(rhs[short])])
        entries = tab[row, :-1]
        negative = entries < -PIVOT_TOL
        if not np.any(negative):
            return "infeasible", iters
        reduced = np.maximum(costs - costs[basis] @ tab[:, :-1], 0.0)
        ratios = np.full(len(entries), np.inf)
        ratios[negative] = reduced[negative] / -entries[negative]
        best = ratios.min()
        col = int(np.argmin(ratios) if not bland
                  else np.flatnonzero(ratios <= best + PIVOT_TOL)[0])
        degenerate_run = degenerate_run + 1 if best <= PIVOT_TOL else 0
        pivot(tab, basis, row, col)
        iters += 1
    return "iteration_limit", iters
