import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebal
from phasebal import fixtures
from phasebal.ga import FitnessEvaluator
from phasebal.errors import ConvergenceError, MetricError, ValidationError
from phasebal.metrics import ObjectiveSpec
from phasebal.network import (Branch, ConstraintConfig, Feeder, LoadSeries,
                              PhaseAssignment, User, injection_series, original_assignment)
from phasebal.powerflow import (DEFAULT_TOL, REFERENCE_PHASORS, _injections, _row_products,
                                losses, solve_series)
from phasebal.problem import Problem, check_operational, evaluate_exact
from reference_impls import (check_operational_per_step, i2r_losses_percent,
                             injection_series_sequential, newton_pf, ybus_by_hand)
from strategies import radial_cases, seeded_radial_feeder

Z_R = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
Z_X = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]
PF_FIELDS = ("u", "s_from", "s_to", "current", "converged", "iterations", "max_mismatch",
             "collapsed")


def zero_loads(feeder, horizon=1):
    ids = tuple(u.id for u in feeder.users)
    p = np.zeros((horizon, len(ids)))
    return LoadSeries(ids, p, p.copy())


def solve_step(feeder, assignment, loads, t, **kwargs):
    """Timestep t solved alone, as a one-step window; a collapse raises."""
    window = loads.slice_window(t, t + 1)
    return solve_series(feeder, assignment, window, **kwargs).check_collapse()[0]


def seeded_batch(feeder, k=3, seed=0):
    """The original assignment and k seeded random ones."""
    rng = np.random.default_rng(seed)
    n = len(feeder.reconfigurable_users())
    return [original_assignment(feeder)] + [
        PhaseAssignment(tuple(int(p) for p in rng.integers(1, 4, n))) for _ in range(k)]


# -- Y-bus and Z-bus --------------------------------------------------------


def assert_z_inverts_reduced_ybus(feeder, y):
    """The power flow's tree-built Z-bus times the reduced Y-bus is I."""
    pf = feeder.pf_tables
    eye = y[np.ix_(pf.other, pf.other)] @ pf.z_nn_t.T
    assert np.allclose(eye, np.eye(len(pf.other)), rtol=0.0, atol=1e-12)


def test_ybus_single_branch_block_structure():
    z = np.diag([0.1 + 0.05j, 0.2 + 0.1j, 0.1 + 0.08j])
    feeder = Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", z.real, z.imag)],
        reference_bus="r",
        users=[User("u1", "b1", 1)],
        base_voltage=230.0, base_power=10000.0)
    y = ybus_by_hand(feeder)
    yb = np.diag(1.0 / np.diag(z / feeder.z_base))
    assert np.allclose(y[:3, :3], yb)
    assert np.allclose(y[3:, 3:], yb)
    assert np.allclose(y[:3, 3:], -yb)
    assert np.allclose(y[3:, :3], -yb)
    assert_z_inverts_reduced_ybus(feeder, y)


def test_ybus_line_dimension(line):
    feeder, _ = line
    y = ybus_by_hand(feeder)
    assert y.shape == (12, 12)
    assert_z_inverts_reduced_ybus(feeder, y)


def test_ybus_row_sums_zero(line):
    feeder, _ = line
    y = ybus_by_hand(feeder)
    ref = 3 * feeder.bus_index(feeder.reference_bus)
    for row in range(12):
        if ref <= row < ref + 3:
            continue
        assert abs(y[row].sum()) < 1e-12
    assert_z_inverts_reduced_ybus(feeder, y)


def test_ybus_symmetric(twenty_user):
    feeder, _ = twenty_user
    y = ybus_by_hand(feeder)
    assert np.allclose(y, y.T)
    assert_z_inverts_reduced_ybus(feeder, y)


@given(case=radial_cases())
@settings(max_examples=40, deadline=None)
def test_tree_zbus_is_the_inverse_of_the_reduced_ybus(case):
    """Path sums over the tree equal the inverted reduced Y-bus, on random
    feeders with branches drawn either way."""
    feeder, _, _ = case
    pf = feeder.pf_tables
    z = np.linalg.inv(ybus_by_hand(feeder)[np.ix_(pf.other, pf.other)])
    assert np.allclose(pf.z_nn_t.T, z, rtol=0.0, atol=1e-12 * np.abs(z).max())


# -- one timestep ------------------------------------------------------------


def test_zero_load_fixed_point(line):
    feeder, _ = line
    sol = solve_step(feeder, original_assignment(feeder), zero_loads(feeder), 0)
    assert sol.converged
    for b in range(len(feeder.buses)):
        assert np.allclose(sol.u[b], REFERENCE_PHASORS, atol=1e-12)
    for s_from, s_to in zip(sol.s_from, sol.s_to):
        assert np.allclose(s_from, 0.0, atol=1e-12)
        assert np.allclose(s_to, 0.0, atol=1e-12)


def test_balanced_users_equal_magnitudes(two_bus):
    feeder, loads = two_bus
    sol = solve_step(feeder, PhaseAssignment((1, 2, 3)), loads, 0)
    mags = np.abs(sol.u)[feeder.bus_index("b1")]
    assert mags.max() - mags.min() < 1e-10


def test_all_on_phase_one_sags_phase_one(line):
    feeder, loads = line
    sol = solve_step(feeder, PhaseAssignment((1, 1, 1)), loads, 12)
    mags = np.abs(sol.u)[feeder.bus_index("b3")]
    assert np.argmin(mags) == 0
    assert mags[0] < mags[1] and mags[0] < mags[2]


def test_against_newton_oracle(line):
    feeder, loads = line
    a = PhaseAssignment((1, 1, 1))
    for t in (0, 7, 18):
        sol = solve_step(feeder, a, loads, t)
        u_ref = newton_pf(feeder, a, loads, t)
        assert np.abs(sol.u - u_ref).max() < 1e-8


@given(case=radial_cases())
@settings(max_examples=30, deadline=None)
def test_series_matches_newton_on_random_feeders(case):
    feeder, loads, rng = case
    a = PhaseAssignment(tuple(int(ph) for ph in
                              rng.integers(1, 4, len(feeder.reconfigurable_users()))))
    # Newton stops at a 1e-12 mismatch; at the default 1e-8 the fixed point
    # was up to 3.3e-9 away on 374 sampled steps, too close to a 1e-8 check
    series = solve_series(feeder, a, loads, tol=1e-12)
    for t in range(loads.horizon):
        try:
            u_ref = newton_pf(feeder, a, loads, t)
        except (RuntimeError, np.linalg.LinAlgError):
            continue  # no Newton reference for this step
        assert series.converged[t]
        assert np.abs(series.u[t] - u_ref).max() < 1e-10


def test_loading_below_half_ampacity(line):
    feeder, loads = line
    sol_series = solve_series(feeder, PhaseAssignment((1, 1, 1)), loads)
    for sol in sol_series:
        for br in feeder.branches:
            i_mag = np.abs(sol.current[feeder.branch_index(br)]) * feeder.i_base
            assert i_mag.max() <= 0.5 * br.ampacity_a


def test_reference_bus_pinned(line):
    feeder, loads = line
    sol = solve_step(feeder, original_assignment(feeder), loads, 3)
    assert np.allclose(sol.u[feeder.bus_index("r")], REFERENCE_PHASORS)


def test_node_power_balance(line):
    feeder, loads = line
    a = original_assignment(feeder)
    sol = solve_step(feeder, a, loads, 18, tol=1e-10)
    s_spec = injection_series_sequential(feeder, a, loads)[18] / feeder.base_power
    for b, bus in enumerate(feeder.buses):
        if bus == feeder.reference_bus:
            continue
        total = -s_spec[b]
        for br in feeder.branches:
            if br.from_bus == bus:
                total -= sol.s_from[feeder.branch_index(br)]
            elif br.to_bus == bus:
                total -= sol.s_to[feeder.branch_index(br)]
        assert np.abs(total).max() < 1e-9


def test_uniform_phase_rotation_rotates_solution(line):
    feeder, loads = line
    base = solve_step(feeder, PhaseAssignment((1, 2, 2)), loads, 9)
    rotated = solve_step(feeder, PhaseAssignment((2, 3, 3)), loads, 9)
    # symmetric Z: rotating every user 1->2->3->1 permutes the magnitudes
    assert np.allclose(np.roll(np.abs(base.u), 1, axis=1), np.abs(rotated.u),
                       atol=1e-9)


@pytest.mark.parametrize("t", [999, 24, -1])
def test_timestep_outside_horizon_rejected(line, t):
    feeder, loads = line
    with pytest.raises(ValidationError, match="outside horizon"):
        solve_step(feeder, original_assignment(feeder), loads, t)


def test_non_convergence_flagged_not_fatal(line):
    feeder, _ = line
    ids = tuple(u.id for u in feeder.users)
    # far beyond feeder capability: fixed point stalls or collapses
    p = np.full((1, 3), 2.0e6)
    heavy = LoadSeries(ids, p, np.zeros_like(p))
    try:
        sol = solve_step(feeder, PhaseAssignment((1, 1, 1)), heavy, 0, max_iter=8)
        assert not sol.converged
        assert sol.max_mismatch > 1e-8
    except ConvergenceError:
        pass  # collapse detection is the other allowed outcome


def test_voltage_collapse_raises(line):
    feeder, _ = line
    ids = tuple(u.id for u in feeder.users)
    p = np.full((1, 3), 1.0e6)
    heavy = LoadSeries(ids, p, np.zeros_like(p))
    with pytest.raises(ConvergenceError):
        solve_step(feeder, PhaseAssignment((1, 1, 1)), heavy, 0)


def test_collapsed_step_is_flagged_and_the_rest_kept(collapsing_line):
    feeder, loads = collapsing_line
    a = PhaseAssignment((1, 1, 1))
    series = solve_series(feeder, a, loads)
    assert np.flatnonzero(series.collapsed).tolist() == [5]
    assert not series.converged[5]
    with pytest.raises(ConvergenceError, match="collapsed"):
        solve_step(feeder, a, loads, 5)
    for t in set(range(loads.horizon)) - {5}:
        solo = solve_step(feeder, a, loads, t)
        assert np.array_equal(series.u[t], solo.u)
        assert np.array_equal(series.current[t], solo.current)
        assert series.iterations[t] == solo.iterations
        assert series.converged[t] == solo.converged
    problem = Problem(feeder, loads, ConstraintConfig(delta_max=3), ObjectiveSpec("pu"))
    ev = evaluate_exact(problem, a)
    assert ev.objective == np.inf and not ev.operational_ok
    assert "collapsed" in ev.violations[0]


@pytest.mark.parametrize("limit, kind", [("power_limit_va", "apparent power"),
                                         ("ampacity_a", "current")])
def test_thermal_violation_names_the_branch_and_limit(limit, kind):
    # 0.1 pu: 1 kVA on the 10 kVA base, 4.3478 A on the 43.478 A base
    value = {"power_limit_va": 1000.0, "ampacity_a": 10_000.0 / 230.0 / 10.0}[limit]
    feeder = Feeder(
        buses=["r", "b1"], branches=[Branch("r", "b1", Z_R, Z_X, **{limit: value})],
        reference_bus="r", users=[User("u1", "b1", 1)],
        base_voltage=230.0, base_power=10_000.0)
    p = np.array([[500.0], [2000.0]])
    loads = LoadSeries(("u1",), p, np.zeros_like(p))
    series = solve_series(feeder, original_assignment(feeder), loads)
    violations = check_operational(feeder, ConstraintConfig(delta_max=0), series)
    assert len(violations) == 1
    assert re.fullmatch(rf"t=1: branch \('r', 'b1'\) {kind} 0\.2\d+ pu exceeds 0\.1000 pu",
                        violations[0])


def limited(feeder):
    """The feeder with low thermal limits: 30 A on even branches, 6 kVA on
    every third, both, one or neither per branch."""
    return Feeder(feeder.buses,
                  [dataclasses.replace(br, ampacity_a=30.0 if k % 2 == 0 else None,
                                       power_limit_va=6000.0 if k % 3 == 0 else None)
                   for k, br in enumerate(feeder.branches)],
                  feeder.reference_bus, feeder.users, feeder.base_voltage, feeder.base_power)


@pytest.mark.parametrize("case", ["none", "tight_band", "reference_outside", "thermal",
                                  "unconverged"])
def test_check_operational_matches_the_per_step_formula(twenty_user, case):
    """The one-pass masks report the same messages, in the same order, as
    the per-step range and peak formula, on stacked series of the original
    and three seeded assignments."""
    feeder, loads = twenty_user
    band = {"tight_band": (0.97, 1.0), "reference_outside": (0.5, 0.995),
            "unconverged": (0.97, 1.0)}.get(case, (0.9, 1.1))
    constraints = ConstraintConfig(delta_max=5, v_min=band[0], v_max=band[1])
    if case in ("thermal", "unconverged"):
        feeder = limited(feeder)
    batch = seeded_batch(feeder)
    # at 6 iterations 41 of the 96 steps converge and 55 do not
    series = solve_series(feeder, batch, loads, max_iter=6 if case == "unconverged" else 100)
    got = check_operational(feeder, constraints, series)
    assert got == check_operational_per_step(feeder, constraints, series)
    kinds = {m.split(": ", 1)[1].split(" ")[0] for m in got}
    if case == "none":
        assert got == ()
    elif case == "thermal":
        assert any("apparent power" in m for m in got) and any(" current " in m for m in got)
        assert kinds == {"branch"}
    elif case == "unconverged":
        assert {"power", "bus", "branch"} <= kinds and not series.converged.all()
    else:
        assert kinds == {"bus"}
    assert not any(f"bus {feeder.reference_bus} " in m for m in got)


def test_limit_table_matches_the_per_branch_formula():
    """Each branch's (apparent power, current) limit per-unit, inf where
    the limit is None, bitwise as the per-branch division gives it."""
    kw = [dict(power_limit_va=12_345.6, ampacity_a=None),
          dict(power_limit_va=None, ampacity_a=71.3),
          dict(power_limit_va=None, ampacity_a=None),
          dict(power_limit_va=9_876.5, ampacity_a=43.21)]
    buses = ["r", "b1", "b2", "b3", "b4"]
    feeder = Feeder(buses, [Branch(f, t, Z_R, Z_X, **k) for f, t, k in zip(buses, buses[1:], kw)],
                    "r", [User("u1", "b4", 1)], 230.0, 10_000.0)
    want = np.array([[np.inf if lim is None else lim / base for lim, base in
                      ((br.power_limit_va, feeder.base_power), (br.ampacity_a, feeder.i_base))]
                     for br in feeder.branches])
    got = feeder.pf_tables.limits
    assert np.isinf(got).sum() == 4
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- losses ------------------------------------------------------------------


def test_losses_zero_load(line):
    feeder, _ = line
    sol = solve_step(feeder, original_assignment(feeder), zero_loads(feeder), 0)
    assert losses(sol, feeder) == 0.0


def test_losses_reactive_only_line_is_lossless():
    zero_r = [[1e-9 if i == j else 0.0 for j in range(3)] for i in range(3)]
    feeder = Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", zero_r, Z_X)],
        reference_bus="r",
        users=[User("u1", "b1", 1)],
        base_voltage=230.0, base_power=10000.0)
    p = np.full((1, 1), 2000.0)
    loads = LoadSeries(("u1",), p, np.zeros_like(p))
    sol = solve_step(feeder, PhaseAssignment((1,)), loads, 0)
    assert abs(losses(sol, feeder)) < 1e-8


def test_losses_match_i2r_recomputation(line):
    feeder, loads = line
    for t in (0, 12, 18):
        sol = solve_step(feeder, original_assignment(feeder), loads, t)
        assert abs(losses(sol, feeder) - i2r_losses_percent(feeder, sol.u)) < 1e-8


def test_losses_undefined_for_zero_reference_flow(line):
    feeder, _ = line
    sol = solve_step(feeder, original_assignment(feeder), zero_loads(feeder), 0)
    # zero flows and zero loss short-circuit to 0 percent
    assert losses(sol, feeder) == 0.0
    from_ref = [k for k, br in enumerate(feeder.branches)
                if br.from_bus == feeder.reference_bus]
    reference_injection = complex(np.sum(sol.s_from[from_ref]))
    assert abs(reference_injection) < 1e-12


# -- solve_series ------------------------------------------------------------


def test_series_singleton(line):
    feeder, loads = line
    window = loads.slice_window(0, 1)
    sols = solve_series(feeder, original_assignment(feeder), window)
    assert len(sols) == 1


def test_series_rejects_an_empty_batch(two_bus):
    feeder, loads = two_bus
    with pytest.raises(ValidationError, match="reconfigurable users"):
        solve_series(feeder, [], loads)


def test_series_constant_loads_identical(two_bus):
    feeder, loads = two_bus
    sols = solve_series(feeder, PhaseAssignment((1, 2, 3)), loads)
    assert len(sols) == loads.horizon
    for sol in sols[1:]:
        assert np.array_equal(sol.u, sols[0].u)


def test_series_matches_single_solves(line):
    feeder, loads = line
    a = PhaseAssignment((2, 1, 3))
    sols = solve_series(feeder, a, loads)
    for t in range(loads.horizon):
        solo = solve_step(feeder, a, loads, t)
        assert np.array_equal(sols[t].u, solo.u)


def test_series_losses_match_single_solves(line):
    feeder, loads = line
    a = original_assignment(feeder)
    per_step = losses(solve_series(feeder, a, loads), feeder)
    assert per_step.shape == (loads.horizon,)
    for t in (0, 12, 18):
        assert abs(per_step[t] - losses(solve_step(feeder, a, loads, t), feeder)) < 1e-12


@pytest.mark.parametrize("name", ["line", "twenty_user"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_block_columns_independent_of_block(name, data):
    """A timestep solved inside any block equals its one-column solve bitwise."""
    feeder, loads = fixtures.fixture(name)
    n_genes = len(feeder.reconfigurable_users())
    a = PhaseAssignment(data.draw(st.lists(st.integers(1, 3), min_size=n_genes,
                                           max_size=n_genes)))
    scale = data.draw(st.floats(0.1, 1.5))
    scaled = LoadSeries(loads.user_ids, loads.p * scale, loads.q * scale)
    steps = data.draw(st.lists(st.integers(0, loads.horizon - 1), min_size=1,
                               max_size=loads.horizon, unique=True))
    block = LoadSeries(loads.user_ids, scaled.p[steps], scaled.q[steps])
    full = solve_series(feeder, a, scaled)
    sols = solve_series(feeder, a, block)
    for arr in ("u", "s_from", "s_to", "current", "iterations", "converged",
                "max_mismatch", "collapsed"):
        assert np.array_equal(getattr(sols, arr), getattr(full, arr)[steps]), arr
    for k in range(len(steps)):
        solo = solve_step(feeder, a, block, k)
        assert np.array_equal(sols[k].u, solo.u)
        assert np.array_equal(sols[k].current, solo.current)
        assert sols[k].iterations == solo.iterations


@pytest.mark.parametrize("name, collapse, stall", [("line", 14.0, 12.0),
                                                   ("twenty_user", 10.0, 4.0)])
def test_block_with_every_exit_matches_one_column_solves(name, collapse, stall):
    """Zero-load steps leave the block after iteration 1, loaded steps later,
    one step collapses and one stalls at ``max_iter``; every field of each
    step equals its one-column solve bitwise."""
    feeder, loads = fixtures.fixture(name)
    a = original_assignment(feeder)
    steps = [(0, 0.0), (0, 1.0), (18, collapse), (6, 0.0), (6, 1.0), (18, stall),
             (12, 1.0), (19, 0.0), (19, 1.0)]
    rows = [t for t, _ in steps]
    scale = np.array([s for _, s in steps])[:, None]
    block = LoadSeries(loads.user_ids, loads.p[rows] * scale, loads.q[rows] * scale)
    series = solve_series(feeder, a, block, max_iter=20)
    assert series.iterations[[0, 3, 7]].tolist() == [1, 1, 1]
    assert series.converged.tolist() == [True, True, False, True, True, False,
                                         True, True, True]
    assert np.flatnonzero(series.collapsed).tolist() == [2]
    assert series.iterations[5] == 20 and min(series.iterations[[1, 4, 6, 8]]) > 1
    # each step's stored iterate is the one its mismatch was measured at
    u = series.u.reshape(len(steps), -1)
    s_calc = u * np.conj(u @ ybus_by_hand(feeder).T)
    s_load = (injection_series_sequential(feeder, a, block).reshape(len(steps), -1)
              / feeder.base_power)
    other = np.repeat([b != feeder.reference_bus for b in feeder.buses], 3)
    assert np.allclose(np.abs(s_calc + s_load)[:, other].max(axis=1), series.max_mismatch,
                       rtol=1e-6, atol=1e-10)
    # no iteration follows a low iterate at max_iter, so that step stalls
    last = solve_series(feeder, a, block.slice_window(2, 3), max_iter=int(series.iterations[2]))
    assert not last.collapsed[0] and not last.converged[0]
    for k in range(len(steps)):
        one = solve_series(feeder, a, block.slice_window(k, k + 1), max_iter=20)
        for field in ("u", "s_from", "s_to", "current", "iterations", "converged",
                      "max_mismatch", "collapsed"):
            assert np.array_equal(getattr(series, field)[k], getattr(one, field)[0]), (k, field)


@pytest.mark.parametrize("name", ["two_bus", "line", "twenty_user", "twenty_user_720"])
def test_reported_mismatch_is_the_ybus_residual(name):
    """Each step's ``max_mismatch`` is the power mismatch of its stored
    voltages, max |u conj(Y u) + s_load| over the non-reference entries
    with the Y-bus built by hand, and a converged step's is within tol."""
    if name == "twenty_user_720":
        feeder = fixtures.twenty_user_feeder()
        loads = fixtures.twenty_user_profiles(horizon=720, seed=7)
        batch = [original_assignment(feeder)]
    else:
        feeder, loads = fixtures.fixture(name)
        batch = seeded_batch(feeder)
    y = ybus_by_hand(feeder)
    other = np.repeat([b != feeder.reference_bus for b in feeder.buses], 3)
    for a in batch:
        series = solve_series(feeder, a, loads)
        u = series.u.reshape(len(series), -1)
        s_load = (injection_series_sequential(feeder, a, loads).reshape(len(series), -1)
                  / feeder.base_power)
        residual = np.abs(u * np.conj(u @ y.T) + s_load)[:, other].max(axis=1)
        assert np.abs(series.max_mismatch - residual).max() <= 1e-12, a.phases
        assert (residual[series.converged] <= DEFAULT_TOL).all(), a.phases


def test_long_block_matches_one_step_solves():
    """At T=720 the working arrays pass 256 KiB, where numpy would run an
    operator-form complex product in place with other rounding; every field
    of every step still equals its one-step solve bitwise."""
    feeder = fixtures.twenty_user_feeder()
    loads = fixtures.twenty_user_profiles(horizon=720, seed=7)
    a = original_assignment(feeder)
    series = solve_series(feeder, a, loads)
    for t in range(loads.horizon):
        one = solve_series(feeder, a, loads.slice_window(t, t + 1))
        for field in ("u", "s_from", "s_to", "current", "iterations", "converged",
                      "max_mismatch", "collapsed"):
            assert np.array_equal(getattr(series, field)[t], getattr(one, field)[0]), (t, field)


@pytest.mark.parametrize("n", [3, 4, 7, 36, 37, 111, 256, 301])
def test_row_products_equal_one_row_products(n):
    """Each row of a block product equals that row's product alone,
    bitwise, at any width, row offset (alignment) or row stride: a BLAS or
    numpy dispatch that merged the rows into one product would not."""
    rng = np.random.default_rng(n)
    m_t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = rng.normal(size=(800, n)) + 1j * rng.normal(size=(800, n))
    alone = np.concatenate([_row_products(x[i:i + 1].copy(), m_t) for i in range(len(x))])
    for width in (1, 2, 3, 7, 96, 97, 720):
        for start in (0, 1, 5):
            block = _row_products(np.array(x[start:start + width]), m_t)
            assert block.tobytes() == alone[start:start + width].tobytes(), (width, start)
    for rows in (slice(1, None, 3), slice(None, 720, 2)):
        assert _row_products(x[rows], m_t).tobytes() == alone[rows].tobytes(), rows


_SOLVE_SEEDED_FEEDER = """
import sys
import numpy as np
from phasebal.network import original_assignment
from phasebal.powerflow import solve_series
from strategies import seeded_radial_feeder
feeder, loads = seeded_radial_feeder(int(sys.argv[1]), seed=int(sys.argv[1]))
series = solve_series(feeder, original_assignment(feeder), loads)
np.savez(sys.argv[2], **{field: getattr(series, field) for field in sys.argv[3:]})
"""


@pytest.mark.parametrize("n_bus", [40, 80])
def test_series_bits_do_not_depend_on_blas_threads(n_bus, tmp_path):
    """A feeder far past one row-product tile (n = 117 and 237) solves to
    the same bytes in every field on one OpenBLAS thread and on two; each
    count needs its own process, as OpenBLAS reads it on load."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(phasebal.__file__)))
    path = os.pathsep.join(filter(None, [src, os.path.dirname(os.path.abspath(__file__)),
                                         os.environ.get("PYTHONPATH")]))
    fields = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _SOLVE_SEEDED_FEEDER, str(n_bus), str(out),
                              *PF_FIELDS], capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]
        with np.load(out) as saved:
            fields.append({f: saved[f] for f in PF_FIELDS})
    one, two = fields
    assert one["converged"].all()
    for field in PF_FIELDS:
        assert one[field].dtype == two[field].dtype, field
        assert one[field].tobytes() == two[field].tobytes(), field


# -- stacked candidate blocks ------------------------------------------------


def assert_stack_is_own_solves(feeder, batch, loads, **kwargs):
    """Every field of each candidate's slice of the stacked block equals
    its own solve bitwise; returns the stacked series."""
    stacked = solve_series(feeder, batch, loads, **kwargs)
    horizon = loads.horizon
    assert len(stacked) == len(batch) * horizon
    for k, a in enumerate(batch):
        own = solve_series(feeder, a, loads, **kwargs)
        part = stacked[k * horizon:(k + 1) * horizon]
        for field in PF_FIELDS:
            got, want = getattr(part, field), getattr(own, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, field)
    return stacked


@given(case=radial_cases(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_candidates_equal_their_own_solves(case, data):
    feeder, loads, rng = case
    n = len(feeder.reconfigurable_users())
    k = data.draw(st.integers(1, 8))
    batch = [PhaseAssignment(tuple(int(p) for p in rng.integers(1, 4, n))) for _ in range(k)]
    scale = data.draw(st.sampled_from([1.0, 40.0]))  # 40x leaves some steps unconverged
    scaled = LoadSeries(loads.user_ids, loads.p * scale, loads.q * scale)
    assert_stack_is_own_solves(feeder, batch, scaled, max_iter=30)


@given(case=radial_cases(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduced_injections_are_bitwise_the_bus_layout_route(case, data):
    """The reduced injections gathered from the branch-major block are
    bitwise -(s.reshape(T, -1) / base_power) over the non-reference (bus,
    phase) entries, s the sequential complex sum, zeros of both signs and
    users at the reference bus included; candidate k's rows are the k-th T.
    The bus list is shuffled, so the reference bus is at any index."""
    feeder, loads, rng = case
    feeder = Feeder(tuple(rng.permutation(feeder.buses)), feeder.branches, feeder.reference_bus,
                    feeder.users, feeder.base_voltage, feeder.base_power)
    n = len(feeder.reconfigurable_users())
    batch = [PhaseAssignment(tuple(int(p) for p in rng.integers(1, 4, n)))
             for _ in range(data.draw(st.integers(1, 4)))]
    p, q = loads.p.copy(), loads.q.copy()
    for x in (p, q):
        x[rng.random(x.shape) < 0.3] = -0.0
        x[rng.random(x.shape) < 0.1] = 0.0
    loads = LoadSeries(loads.user_ids, p, q)
    ref = feeder.bus_index(feeder.reference_bus)
    other = [k for k in range(3 * len(feeder.buses)) if k // 3 != ref]
    got = _injections(feeder.pf_tables, injection_series(feeder, batch, loads))
    assert got.shape == (len(batch) * loads.horizon, len(other)) and got.flags.c_contiguous
    for k, a in enumerate(batch):
        s = injection_series_sequential(feeder, a, loads).reshape(loads.horizon, -1)
        expected = -(s / feeder.base_power)[:, other]
        assert got[k * loads.horizon:(k + 1) * loads.horizon].tobytes() == expected.tobytes(), k


@pytest.fixture(scope="module")
def crowded_bus():
    """Three users on one bus, one per phase at first: at the 60/80/100 kW
    step, all on phase 1 collapses and (1, 1, 2) stalls at max_iter, while
    one user per phase converges at every step."""
    feeder = Feeder(["r", "b1"], [Branch("r", "b1", Z_R, Z_X)], "r",
                    [User("u1", "b1", 1), User("u2", "b1", 2), User("u3", "b1", 3)],
                    230.0, 10000.0)
    p = np.array([[6e3, 8e3, 10e3], [60e3, 80e3, 100e3], [30e3, 40e3, 50e3]])
    return feeder, LoadSeries(("u1", "u2", "u3"), p, 0.2 * p)


def test_a_failing_candidate_leaves_its_neighbours_alone(crowded_bus):
    feeder, loads = crowded_bus
    plans = [(1, 2, 3), (1, 1, 1), (2, 1, 3), (1, 1, 2), (3, 1, 2)]
    batch = [PhaseAssignment(c) for c in plans]
    stacked = assert_stack_is_own_solves(feeder, batch, loads)
    by_plan = stacked.collapsed.reshape(len(plans), -1).tolist()
    assert by_plan == [[False] * 3, [False, True, False], [False] * 3, [False] * 3, [False] * 3]
    stalled = (~stacked.converged & ~stacked.collapsed).reshape(len(plans), -1)
    assert stalled.any(axis=1).tolist() == [False, True, False, True, False]
    wide_band = ConstraintConfig(delta_max=3, v_min=0.5, v_max=1.5)
    problem = Problem(feeder, loads, wide_band, ObjectiveSpec("pu"))
    evaluator = FitnessEvaluator(problem)
    chunked = evaluator.evaluate_population(plans)
    assert evaluator.pf_evaluations == 1 + len(plans)
    alone = [FitnessEvaluator(problem).evaluate_population([c])[0] for c in plans]
    assert chunked == alone
    penalty = evaluator.m * evaluator.i0
    assert np.isfinite(evaluator.i0)
    assert chunked[1] == penalty  # collapsed: inf objective, scored as the penalty
    assert chunked[3] > penalty   # stalled: objective plus the penalty
    for k in (0, 2, 4):
        ev = evaluate_exact(problem, batch[k])
        assert ev.operational_ok and chunked[k] == ev.objective < penalty
