import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasebal import fixtures, powerflow
from phasebal.dropmatrices import GAMMA_IM, GAMMA_RE, ab_matrices
from phasebal.errors import ValidationError
from phasebal.lindist import AffineSensitivity, _sweep, evaluate_series, sensitivity
from phasebal.network import (Branch, Feeder, LoadSeries, PhaseAssignment, User,
                              downstream_users, injection_series, original_assignment)
from reference_impls import sensitivity_loop, sweep_by_branch
from strategies import radial_cases

S3 = np.sqrt(3.0)


def test_gamma_real_part():
    assert np.allclose(GAMMA_RE, [[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]])


def test_gamma_imag_part():
    assert np.allclose(GAMMA_IM, [[0, S3 / 2, -S3 / 2],
                                  [-S3 / 2, 0, S3 / 2],
                                  [S3 / 2, -S3 / 2, 0]])


# -- drop matrices -----------------------------------------------------------
# The Gamma factors attach elementwise to the impedance entries (each entry
# couples one phase pair), so for generic R, X the entries are:
#   A[a][b] = 2 (Re(Gamma)[a][b] R[a][b] + Im(Gamma)[a][b] X[a][b])
# which for the off-diagonals works out to -R +/- sqrt(3) X and so on.


def test_ab_identity_r():
    a, b = ab_matrices(np.eye(3), np.zeros((3, 3)))
    assert np.allclose(a, 2.0 * np.eye(3))   # diagonal Gamma entries are 1
    assert np.allclose(b, np.zeros((3, 3)))  # Im(Gamma) vanishes on the diagonal


def test_ab_identity_x():
    a, b = ab_matrices(np.zeros((3, 3)), np.eye(3))
    assert np.allclose(a, np.zeros((3, 3)))
    assert np.allclose(b, 2.0 * np.eye(3))


def test_ab_zero():
    a, b = ab_matrices(np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.allclose(a, 0.0)
    assert np.allclose(b, 0.0)


def test_ab_generic_entries():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.01, 0.2, (3, 3))
    r = (r + r.T) / 2
    x = rng.uniform(0.01, 0.2, (3, 3))
    x = (x + x.T) / 2
    a, b = ab_matrices(r, x)
    assert np.allclose(np.diag(a), 2 * np.diag(r))
    assert np.allclose(np.diag(b), 2 * np.diag(x))
    # pair (1,2): Gamma_12 = exp(+j 2pi/3) -> Re -1/2, Im +sqrt(3)/2
    assert np.isclose(a[0, 1], -r[0, 1] + S3 * x[0, 1])
    assert np.isclose(b[0, 1], -x[0, 1] - S3 * r[0, 1])
    # pair (1,3): Gamma_13 = exp(-j 2pi/3) -> Re -1/2, Im -sqrt(3)/2
    assert np.isclose(a[0, 2], -r[0, 2] - S3 * x[0, 2])
    assert np.isclose(b[0, 2], -x[0, 2] + S3 * r[0, 2])


# -- evaluate ----------------------------------------------------------------


def zero_loads(feeder, horizon=1):
    ids = tuple(u.id for u in feeder.users)
    p = np.zeros((horizon, len(ids)))
    return LoadSeries(ids, p, p.copy())


def test_zero_load_unit_omega(line):
    feeder, _ = line
    state = evaluate_series(feeder, original_assignment(feeder), zero_loads(feeder))
    assert np.allclose(state.omega[0], 1.0)
    for k in range(len(feeder.branches)):
        assert np.allclose(state.flow_p[0, k], 0.0)
        assert np.allclose(state.flow_q[0, k], 0.0)


def test_balanced_two_bus_equal_omega(two_bus):
    feeder, loads = two_bus
    omega = evaluate_series(feeder, PhaseAssignment((1, 2, 3)), loads).omega[0]
    w = omega[feeder.bus_index("b1")]
    assert np.ptp(w) < 1e-12


def test_line_matches_exact_pf_squared(line):
    feeder, loads = line
    a = PhaseAssignment((1, 1, 1))
    state = evaluate_series(feeder, a, loads)
    for t in range(loads.horizon):
        omega = state.omega[t]
        sol = powerflow.solve_series(feeder, a, loads.slice_window(t, t + 1))[0]
        err = np.abs(omega[feeder.bus_index("b3")]
                     - np.abs(sol.u[feeder.bus_index("b3")]) ** 2)
        assert err.max() < 1.5e-2


def test_flows_equal_downstream_sums(twenty_user):
    feeder, loads = twenty_user
    a = original_assignment(feeder)
    state = evaluate_series(feeder, a, loads)
    phases = {u.id: p for u, p in zip(feeder.reconfigurable_users(), a.phases)}
    for k, br in enumerate(feeder.branches):
        expect_p = np.zeros((loads.horizon, 3))
        for uid in downstream_users(feeder, br):
            col = loads.column(uid)
            expect_p[:, phases[uid] - 1] += loads.p[:, col] / feeder.base_power
        assert np.allclose(state.flow_p[:, k], expect_p, atol=1e-15)


def test_ld3f_linearity_disjoint_sets(line):
    feeder, loads = line
    wa = evaluate_series(feeder, PhaseAssignment((1, 1, 1)), loads).omega
    # single-user placements via per-user zeroed series
    zero = np.zeros_like(loads.p)
    states = []
    for j in range(3):
        p = zero.copy()
        p[:, j] = loads.p[:, j]
        q = zero.copy()
        q[:, j] = loads.q[:, j]
        solo = LoadSeries(loads.user_ids, p, q)
        states.append(evaluate_series(feeder, PhaseAssignment((1, 1, 1)), solo).omega)
    combined = sum(s - 1.0 for s in states) + 1.0
    assert np.allclose(combined, wa, atol=1e-12)


# -- sensitivity -------------------------------------------------------------


def test_sensitivity_no_reconfigurable_users():
    z_r = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
    z_x = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]
    feeder = Feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", z_r, z_x)],
        reference_bus="r",
        users=[User("fix", "b1", 2, reconfigurable=False)],
        base_voltage=230.0, base_power=10000.0)
    p = np.full((4, 1), 1500.0)
    loads = LoadSeries(("fix",), p, np.zeros_like(p))
    sens = sensitivity(feeder, loads)
    assert sens.d_omega.shape[0] == 0
    direct = evaluate_series(feeder, PhaseAssignment(()), loads)
    assert np.allclose(sens.omega0, direct.omega, atol=1e-15)


def test_sensitivity_superposition_all_27(line):
    feeder, loads = line
    sens = sensitivity(feeder, loads)
    for phases in itertools.product((1, 2, 3), repeat=3):
        a = PhaseAssignment(phases)
        direct = evaluate_series(feeder, a, loads)
        omega, p, q = sens.omega0.copy(), sens.flow0_p.copy(), sens.flow0_q.copy()
        for i, ph in enumerate(phases):
            omega += sens.d_omega[i, ph - 1]
            p += sens.d_flow_p[i, ph - 1]
            q += sens.d_flow_q[i, ph - 1]
        assert np.abs(omega - direct.omega).max() <= 1e-10
        for k in range(len(feeder.branches)):
            assert np.abs(p[:, k] - direct.flow_p[:, k]).max() <= 1e-10
            assert np.abs(q[:, k] - direct.flow_q[:, k]).max() <= 1e-10


def test_sensitivity_flow_increment_structure(line):
    feeder, loads = line
    sens = sensitivity(feeder, loads)
    pr = feeder.reconfigurable_users()
    k = feeder.branch_index(feeder.branch("r", "b1"))
    for i, u in enumerate(pr):
        col = loads.column(u.id)
        for ph in (1, 2, 3):
            inc = sens.d_flow_p[i, ph - 1, :, k]   # (T, 3)
            expect = np.zeros_like(inc)
            expect[:, ph - 1] = loads.p[:, col] / feeder.base_power
            assert np.allclose(inc, expect, atol=1e-15)


# -- random radial feeders ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(radial_cases())
def test_sensitivity_bitwise_equals_per_user_sweeps(case):
    feeder, loads, _ = case
    sens = sensitivity(feeder, loads)
    got = (sens.omega0, sens.d_omega, sens.flow0_p, sens.flow0_q,
           sens.d_flow_p, sens.d_flow_q)
    for mine, ref in zip(got, sensitivity_loop(feeder, loads)):
        assert mine.shape == ref.shape
        assert np.array_equal(mine, ref)


@settings(max_examples=40, deadline=None)
@given(radial_cases())
def test_sensitivity_superposition_random_feeders(case):
    feeder, loads, rng = case
    sens = sensitivity(feeder, loads)
    n = len(feeder.reconfigurable_users())
    for _ in range(3):
        phases = tuple(int(ph) for ph in rng.integers(1, 4, n))
        direct = evaluate_series(feeder, PhaseAssignment(phases), loads)
        picks = (np.arange(n), np.array(phases, dtype=int) - 1)
        omega = sens.omega0 + sens.d_omega[picks].sum(axis=0)
        p = sens.flow0_p + sens.d_flow_p[picks].sum(axis=0)
        q = sens.flow0_q + sens.d_flow_q[picks].sum(axis=0)
        assert np.abs(omega - direct.omega).max() <= 1e-10
        assert np.abs(p - direct.flow_p).max() <= 1e-10
        assert np.abs(q - direct.flow_q).max() <= 1e-10


def _with_fixture_examples(test):
    """Add every (fixture, T in {1, 2}, leading shape) as an explicit example."""
    for name, horizon, lead in itertools.product(("line", "twenty_user"), (1, 2),
                                                 ((), (1,), (2, 3))):
        feeder, loads = fixtures.fixture(name)
        case = (feeder, loads.slice_window(0, horizon), np.random.default_rng(2024))
        test = example(case=case, lead=lead)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(radial_cases(), st.lists(st.integers(1, 3), max_size=2).map(tuple))
@_with_fixture_examples
def test_batched_sweep_rows_equal_single_sweeps(case, lead):
    # byte equality pins the stacked drop product to one (T, 3) @ (3, 3)
    # product per branch, as the branch-by-branch sweep does; a (1, 3) @
    # (3, 3) product per (t, branch) differs from it in the last bit
    feeder, loads, rng = case
    shape = lead + (loads.horizon, len(feeder.buses), 3)
    p_bus = rng.uniform(-0.5, 0.5, shape)
    q_bus = rng.uniform(-0.5, 0.5, shape)

    def flow(p, q):  # the sweep's branch-major input, a fresh array per call
        return np.moveaxis(np.stack((p, q)), -2, 0)[feeder.sweep_tables().to_bus]

    batch = _sweep(feeder, flow(p_bus, q_bus))
    for idx in np.ndindex(*lead):
        one = _sweep(feeder, flow(p_bus[idx], q_bus[idx]))
        ref = sweep_by_branch(feeder, p_bus[idx], q_bus[idx])
        for got, single, expect in zip((batch.omega, batch.flow_p, batch.flow_q),
                                       (one.omega, one.flow_p, one.flow_q), ref):
            assert got[idx].shape == single.shape == expect.shape
            assert got[idx].tobytes() == single.tobytes() == expect.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["line", "twenty_user"]), st.integers(1, 7), st.data())
def test_batched_evaluate_series_rows_equal_their_own_call(name, size, data):
    feeder, loads = fixtures.fixture(name)
    n = len(feeder.reconfigurable_users())
    phases = st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple)
    batch = [PhaseAssignment(p) for p in data.draw(st.lists(phases, min_size=size,
                                                            max_size=size))]
    state = evaluate_series(feeder, batch, loads)
    for k, a in enumerate(batch):
        one = evaluate_series(feeder, a, loads)
        for got, own in zip((state.omega, state.flow_p, state.flow_q),
                            (one.omega, one.flow_p, one.flow_q)):
            assert got.shape == (size,) + own.shape
            assert np.array_equal(got[k], own)
    short = data.draw(st.integers(0, size - 1))
    batch[short] = PhaseAssignment(batch[short].phases[:-1])
    with pytest.raises(ValidationError, match="reconfigurable users"):
        evaluate_series(feeder, batch, loads)


@settings(max_examples=60, deadline=None)
@given(radial_cases(), st.integers(1, 4), st.data())
def test_evaluate_series_is_bitwise_the_complex_route(case, size, data):
    # the real scatter and its reciprocal scale keep every bit of the
    # complex injections divided by base_power; radial_cases puts users on
    # the reference bus, several users on one bus, and fixed users
    feeder, loads, _ = case
    n = len(feeder.reconfigurable_users())
    phases = st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple)
    batch = [PhaseAssignment(p) for p in data.draw(st.lists(phases, min_size=size,
                                                            max_size=size))]
    state = evaluate_series(feeder, batch, loads)
    for k, a in enumerate(batch):
        s = injection_series(feeder, a, loads) / feeder.base_power
        one = evaluate_series(feeder, a, loads)
        for got, single, expect in zip((state.omega, state.flow_p, state.flow_q),
                                       (one.omega, one.flow_p, one.flow_q),
                                       sweep_by_branch(feeder, s.real, s.imag)):
            assert got[k].shape == single.shape == expect.shape
            assert got[k].tobytes() == single.tobytes() == expect.tobytes()


def test_evaluate_series_rejects_an_empty_batch(line):
    feeder, loads = line
    with pytest.raises(ValidationError, match="reconfigurable users"):
        evaluate_series(feeder, [], loads)


# -- fidelity against exact PF (all fixtures) ---------------------------------


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_fidelity_and_drop_signs(name):
    feeder, loads = fixtures.fixture(name)
    a = original_assignment(feeder)
    state = evaluate_series(feeder, a, loads)
    sols = powerflow.solve_series(feeder, a, loads)
    for t, sol in enumerate(sols):
        omega = state.omega[t]
        exact = np.abs(sol.u) ** 2
        assert np.abs(omega - exact).max() <= 2e-2
        for br in feeder.branches:
            i = feeder.bus_index(br.from_bus)
            j = feeder.bus_index(br.to_bus)
            drop_lin = omega[i] - omega[j]
            drop_exact = exact[i] - exact[j]
            for ph in range(3):
                if abs(drop_lin[ph]) < 1e-9 and abs(drop_exact[ph]) < 1e-9:
                    continue
                assert np.sign(drop_lin[ph]) == np.sign(drop_exact[ph])
