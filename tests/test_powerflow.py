import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebal import fixtures
from phasebal.errors import ConvergenceError, MetricError, ValidationError
from phasebal.network import (Branch, LoadSeries, PhaseAssignment, User,
                              make_feeder, original_assignment)
from phasebal.powerflow import (REFERENCE_PHASORS, build_ybus, losses, solve_pf,
                                solve_series)
from reference_impls import i2r_losses_percent, newton_pf

Z_R = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
Z_X = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]


def zero_loads(feeder, horizon=1):
    ids = tuple(u.id for u in feeder.users)
    p = np.zeros((horizon, len(ids)))
    return LoadSeries(ids, p, p.copy())


# -- build_ybus --------------------------------------------------------------


def test_ybus_single_branch_block_structure():
    z = np.diag([0.1 + 0.05j, 0.2 + 0.1j, 0.1 + 0.08j])
    feeder = make_feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", z.real, z.imag)],
        reference_bus="r",
        users=[User("u1", "b1", 1)],
        base_voltage=230.0, base_power=10000.0)
    y = build_ybus(feeder)
    yb = np.diag(1.0 / np.diag(z / feeder.z_base))
    assert np.allclose(y[:3, :3], yb)
    assert np.allclose(y[3:, 3:], yb)
    assert np.allclose(y[:3, 3:], -yb)
    assert np.allclose(y[3:, :3], -yb)


def test_ybus_line_dimension(line):
    feeder, _ = line
    assert build_ybus(feeder).shape == (12, 12)


def test_ybus_row_sums_zero(line):
    feeder, _ = line
    y = build_ybus(feeder)
    ref = 3 * feeder.bus_index(feeder.reference_bus)
    for row in range(12):
        if ref <= row < ref + 3:
            continue
        assert abs(y[row].sum()) < 1e-12


def test_ybus_symmetric(twenty_user):
    feeder, _ = twenty_user
    y = build_ybus(feeder)
    assert np.allclose(y, y.T)


# -- solve_pf ----------------------------------------------------------------


def test_zero_load_fixed_point(line):
    feeder, _ = line
    sol = solve_pf(feeder, original_assignment(feeder), zero_loads(feeder), 0)
    assert sol.converged
    for b in range(len(feeder.buses)):
        assert np.allclose(sol.u[b], REFERENCE_PHASORS, atol=1e-12)
    for s_from, s_to in sol.flows.values():
        assert np.allclose(s_from, 0.0, atol=1e-12)
        assert np.allclose(s_to, 0.0, atol=1e-12)


def test_balanced_users_equal_magnitudes(two_bus):
    feeder, loads = two_bus
    sol = solve_pf(feeder, PhaseAssignment((1, 2, 3)), loads, 0)
    mags = sol.u_mag()[feeder.bus_index("b1")]
    assert mags.max() - mags.min() < 1e-10


def test_all_on_phase_one_sags_phase_one(line):
    feeder, loads = line
    sol = solve_pf(feeder, PhaseAssignment((1, 1, 1)), loads, 12)
    mags = sol.u_mag()[feeder.bus_index("b3")]
    assert np.argmin(mags) == 0
    assert mags[0] < mags[1] and mags[0] < mags[2]


def test_against_newton_oracle(line):
    feeder, loads = line
    a = PhaseAssignment((1, 1, 1))
    for t in (0, 7, 18):
        sol = solve_pf(feeder, a, loads, t)
        u_ref = newton_pf(feeder, a, loads, t)
        assert np.abs(sol.u - u_ref).max() < 1e-8


def test_loading_below_half_ampacity(line):
    feeder, loads = line
    sol_series = solve_series(feeder, PhaseAssignment((1, 1, 1)), loads)
    for sol in sol_series:
        for br in feeder.branches:
            i_mag = np.abs(sol.current[feeder.branch_index(br)]) * feeder.i_base
            assert i_mag.max() <= 0.5 * br.ampacity_a


def test_reference_bus_pinned(line):
    feeder, loads = line
    sol = solve_pf(feeder, original_assignment(feeder), loads, 3)
    assert np.allclose(sol.u[feeder.bus_index("r")], REFERENCE_PHASORS)


def test_node_power_balance(line):
    feeder, loads = line
    a = original_assignment(feeder)
    sol = solve_pf(feeder, a, loads, 18, tol=1e-10)
    from phasebal.network import injection_series
    s_spec = injection_series(feeder, a, loads)[18] / feeder.base_power
    for b, bus in enumerate(feeder.buses):
        if bus == feeder.reference_bus:
            continue
        total = -s_spec[b]
        for br in feeder.branches:
            if br.from_bus == bus:
                total -= sol.flows[br.key][0]
            elif br.to_bus == bus:
                total -= sol.flows[br.key][1]
        assert np.abs(total).max() < 1e-9


def test_warm_start_agrees_with_flat_start(line):
    feeder, loads = line
    a = PhaseAssignment((1, 2, 1))
    tol = 1e-8
    flat = solve_pf(feeder, a, loads, 5, tol=tol)
    warm = solve_pf(feeder, a, loads, 5, tol=tol,
                    start=solve_pf(feeder, a, loads, 4).u)
    assert np.abs(flat.u - warm.u).max() < 10 * tol


def test_uniform_phase_rotation_rotates_solution(line):
    feeder, loads = line
    base = solve_pf(feeder, PhaseAssignment((1, 2, 2)), loads, 9)
    rotated = solve_pf(feeder, PhaseAssignment((2, 3, 3)), loads, 9)
    # symmetric Z: rotating every user 1->2->3->1 permutes the magnitudes
    assert np.allclose(np.roll(base.u_mag(), 1, axis=1), rotated.u_mag(),
                       atol=1e-9)


@pytest.mark.parametrize("t", [999, 24, -1])
def test_timestep_outside_horizon_rejected(line, t):
    feeder, loads = line
    with pytest.raises(ValidationError, match="outside horizon"):
        solve_pf(feeder, original_assignment(feeder), loads, t)


def test_non_convergence_flagged_not_fatal(line):
    feeder, _ = line
    ids = tuple(u.id for u in feeder.users)
    # far beyond feeder capability: fixed point stalls or collapses
    p = np.full((1, 3), 2.0e6)
    heavy = LoadSeries(ids, p, np.zeros_like(p))
    try:
        sol = solve_pf(feeder, PhaseAssignment((1, 1, 1)), heavy, 0, max_iter=8)
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
        solve_pf(feeder, PhaseAssignment((1, 1, 1)), heavy, 0)


# -- losses ------------------------------------------------------------------


def test_losses_zero_load(line):
    feeder, _ = line
    sol = solve_pf(feeder, original_assignment(feeder), zero_loads(feeder), 0)
    assert losses(sol, feeder) == 0.0


def test_losses_reactive_only_line_is_lossless():
    zero_r = [[1e-9 if i == j else 0.0 for j in range(3)] for i in range(3)]
    feeder = make_feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", zero_r, Z_X)],
        reference_bus="r",
        users=[User("u1", "b1", 1)],
        base_voltage=230.0, base_power=10000.0)
    p = np.full((1, 1), 2000.0)
    loads = LoadSeries(("u1",), p, np.zeros_like(p))
    sol = solve_pf(feeder, PhaseAssignment((1,)), loads, 0)
    assert abs(losses(sol, feeder)) < 1e-8


def test_losses_match_i2r_recomputation(line):
    feeder, loads = line
    for t in (0, 12, 18):
        sol = solve_pf(feeder, original_assignment(feeder), loads, t)
        assert abs(losses(sol, feeder) - i2r_losses_percent(feeder, sol.u)) < 1e-8


def test_losses_undefined_for_zero_reference_flow(line):
    feeder, _ = line
    sol = solve_pf(feeder, original_assignment(feeder), zero_loads(feeder), 0)
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
        solo = solve_pf(feeder, a, loads, t)
        assert np.array_equal(sols[t].u, solo.u)


def test_series_losses_match_single_solves(line):
    feeder, loads = line
    a = original_assignment(feeder)
    per_step = losses(solve_series(feeder, a, loads), feeder)
    assert per_step.shape == (loads.horizon,)
    for t in (0, 12, 18):
        assert abs(per_step[t] - losses(solve_pf(feeder, a, loads, t), feeder)) < 1e-12


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
                "max_mismatch"):
        assert np.array_equal(getattr(sols, arr), getattr(full, arr)[steps]), arr
    for k in range(len(steps)):
        solo = solve_pf(feeder, a, block, k)
        assert np.array_equal(sols[k].u, solo.u)
        assert np.array_equal(sols[k].current, solo.current)
        assert sols[k].iterations == solo.iterations
