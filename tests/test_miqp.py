import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_impls as ref
from phasebal import fixtures, lindist, miqp, oracle
from phasebal.errors import InfeasibleProgramError, ValidationError
from phasebal.metrics import ObjectiveSpec, aggregate
from phasebal.miqp import (LEAF_CHUNK, SCORE_BLOCK, BnBOptions, _BnBSolver, _gather_sum,
                           _quadratic_parts, branch_and_bound, build_program)
from phasebal.network import (Branch, ConstraintConfig, LoadSeries,
                              PhaseAssignment, User, downstream_users, feasible_mask,
                              make_feeder)
from phasebal.problem import (Problem, evaluate, evaluate_exact,
                              metric_values_ld3f)
from strategies import radial_cases

Z_R = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
Z_X = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]


# -- build_program -------------------------------------------------------------


def test_exact_metrics_rejected(line):
    feeder, loads = line
    for metric in ("pvur", "pu", "iu"):
        with pytest.raises(ValidationError, match="not representable"):
            build_program(feeder, loads, ConstraintConfig(delta_max=2),
                          ObjectiveSpec(metric))


def test_no_reconfigurable_users_constant_program():
    feeder = make_feeder(
        buses=["r", "b1"],
        branches=[Branch("r", "b1", Z_R, Z_X)],
        reference_bus="r",
        users=[User("fix", "b1", 1, reconfigurable=False)],
        base_voltage=230.0, base_power=10000.0)
    p = np.full((3, 1), 2000.0)
    loads = LoadSeries(("fix",), p, np.zeros_like(p))
    cons = ConstraintConfig(delta_max=2)
    for metric in ("pvur_star", "pu_star"):
        prog = build_program(feeder, loads, cons, ObjectiveSpec(metric))
        assert prog.n_users == 0
        direct = evaluate(Problem(feeder, loads, cons, ObjectiveSpec(metric)),
                          PhaseAssignment(()), "ld3f")
        assert np.isclose(prog.baseline_objective, direct, atol=1e-12)
        res = branch_and_bound(prog)
        assert res.status == "optimal"
        assert res.nodes == 1
        assert res.gap == 0.0


def test_switch_budget_row(line):
    feeder, loads = line
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=1),
                         ObjectiveSpec("pu_star"))
    # budget rewritten over the original-phase indicators:
    # 3 - (d_u1_1 + d_u2_1 + d_u3_1) <= 1
    a = PhaseAssignment((1, 1, 1))
    assert prog.point_feasible(a)
    assert prog.point_feasible(PhaseAssignment((1, 2, 1)))
    assert not prog.point_feasible(PhaseAssignment((1, 2, 3)))


def test_program_objective_matches_pipeline(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    for metric in ("pvur_star", "pu_star"):
        prog = build_program(feeder, loads, cons, ObjectiveSpec(metric))
        prob = Problem(feeder, loads, cons, ObjectiveSpec(metric))
        for phases in itertools.product((1, 2, 3), repeat=3):
            a = PhaseAssignment(phases)
            assert abs(prog.objective_at(a) - evaluate(prob, a, "ld3f")) <= 1e-8


def test_program_optimum_equals_enumeration(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    prob = Problem(feeder, loads, cons, ObjectiveSpec("pvur_star"))
    best = min(evaluate(prob, PhaseAssignment(p), "ld3f")
               for p in itertools.product((1, 2, 3), repeat=3))
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pvur_star"))
    res = branch_and_bound(prog, BnBOptions(abs_gap=1e-9, rel_gap=0.0))
    assert abs(res.objective - best) <= 1e-9


def test_quadratic_parts_psd(line):
    feeder, loads = line
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=3),
                         ObjectiveSpec("pu_star"))
    q_mat, _, _ = _quadratic_parts(prog)
    eigvals = np.linalg.eigvalsh((q_mat + q_mat.T) / 2)
    assert eigvals.min() >= -1e-10


# -- leaf scoring ----------------------------------------------------------------


@pytest.fixture(scope="module")
def programs(twenty_user):
    feeder, loads = twenty_user
    cons = ConstraintConfig(delta_max=4, gamma_low=5, gamma_upp=8,
                            enforce_phase_counts=True)
    return {metric: build_program(feeder, loads, cons, ObjectiveSpec(metric))
            for metric in ("pvur_star", "pu_star")}


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 600),
       metric=st.sampled_from(["pvur_star", "pu_star"]),
       locations=st.integers(1, 4), n_side=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_gather_scoring_matches_references(programs, seed, m, metric, locations,
                                           n_side):
    rng = np.random.default_rng(seed)
    prog = programs[metric]
    t_dim, n = prog.horizon, prog.n_users
    const, coef = (rng.normal(size=(t_dim, locations, 3)),
                   rng.normal(size=(t_dim, locations, 3, n, 3)))
    side = tuple((f"row{r}", rng.normal(size=(n, 3)), rng.normal() * np.sqrt(n))
                 for r in range(n_side))
    # a budget of n leaves the phase counts and side rows to decide the mask
    prog = dataclasses.replace(prog, delta_max=n, side_rows=side)
    if metric == "pvur_star":
        prog = dataclasses.replace(prog, dev_const=const, dev_coef=coef)
    else:
        prog = dataclasses.replace(prog, diff_const=const, diff_coef=coef,
                                   branch_weight=rng.uniform(0.5, 2.0, locations))
    phases = rng.integers(1, 4, size=(m, n)).astype(np.int8)

    values = prog.objective_batch(phases)
    assert np.array_equal(values, ref.objective_sequential(prog, phases))
    np.testing.assert_allclose(values, ref.objective_einsum(prog, phases), rtol=1e-12)

    mask = prog.feasible_mask(phases)
    expected = feasible_mask(phases, prog.c0, prog.delta_max, prog.fixed_phase_counts,
                             prog.gamma)
    if side:
        limits = np.array([rhs for _, _, rhs in side]) + 1e-9
        lhs = ref.side_rows_sequential(prog, phases)
        dense = ref.side_rows_einsum(prog, phases)
        scale = np.abs(dense).max()
        np.testing.assert_allclose(lhs, dense, rtol=0, atol=1e-12 * scale)
        clear = (np.abs(dense - limits) > 1e-12 * scale).all(axis=1)
        assert np.array_equal(mask[clear], (expected & (dense <= limits).all(axis=1))[clear])
        expected &= (lhs <= limits).all(axis=1)
    assert np.array_equal(mask, expected)

    # a row scores the same alone as inside a batch that crosses blocks
    for i in rng.choice(m, size=min(m, 4), replace=False):
        assert prog.objective_batch(phases[i:i + 1])[0] == values[i]
        assert prog.feasible_mask(phases[i:i + 1])[0] == mask[i]


def test_gather_sum_edge_shapes():
    assert SCORE_BLOCK < 600  # the property test above crosses a block
    assert np.array_equal(_gather_sum(np.zeros((0, 4)), np.zeros((5, 0), dtype=int)),
                          np.zeros((5, 4)))
    assert _gather_sum(np.ones((6, 4)), np.zeros((0, 2), dtype=int)).shape == (0, 4)


# -- branch and bound ------------------------------------------------------------


def test_zero_budget_returns_original(line):
    feeder, loads = line
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=0),
                         ObjectiveSpec("pu_star"))
    res = branch_and_bound(prog)
    assert res.assignment == PhaseAssignment((1, 1, 1))
    assert res.gap == 0.0
    assert res.nodes == 1
    assert res.status == "optimal"


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
def test_line_matches_oracle(line, metric):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    prob = Problem(feeder, loads, cons, ObjectiveSpec(metric))
    best = min(evaluate(prob, PhaseAssignment(p), "ld3f")
               for p in itertools.product((1, 2, 3), repeat=3))
    prog = build_program(feeder, loads, cons, ObjectiveSpec(metric))
    res = branch_and_bound(prog, BnBOptions(abs_gap=1e-9, rel_gap=0.0,
                                            leaf_enum_cap=1))
    assert res.status == "optimal"
    assert res.gap <= 1e-9
    assert abs(res.objective - best) <= 1e-9
    assert res.bound <= res.objective + 1e-12


def test_twenty_user_budget_two_matches_enumeration(twenty_user):
    feeder, loads = twenty_user
    cons = ConstraintConfig(delta_max=2)
    prob = Problem(feeder, loads, cons, ObjectiveSpec("pu_star"))
    from phasebal.oracle import enumerate_optimal
    orc = enumerate_optimal(prob, evaluator="ld3f")
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pu_star"))
    res = branch_and_bound(prog, BnBOptions(abs_gap=1e-9, rel_gap=0.0))
    assert abs(res.objective - orc.objective) <= 1e-9


def test_result_reproducible_by_linear_pipeline(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=2)
    prob = Problem(feeder, loads, cons, ObjectiveSpec("pu_star"))
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pu_star"))
    res = branch_and_bound(prog)
    replay = evaluate(prob, res.assignment, "ld3f")
    assert abs(replay - res.objective) <= 1e-8
    # exact-physics score exists and is finite
    exact = evaluate_exact(Problem(feeder, loads, cons, ObjectiveSpec("pu")),
                           res.assignment)
    assert np.isfinite(exact.objective)


def test_epigraph_tight_at_optimum(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pvur_star"))
    res = branch_and_bound(prog, BnBOptions(abs_gap=1e-9, rel_gap=0.0))
    # at an integral optimum the epigraph mean equals the true max-deviation
    # mean computed by the metric pipeline
    prob = Problem(feeder, loads, cons, ObjectiveSpec("pvur_star"))
    state = lindist.evaluate_series(feeder, res.assignment, loads)
    vals = metric_values_ld3f(prob.objective, feeder, loads, state)
    assert abs(aggregate(prob.objective, vals) - res.objective) <= 1e-9


def test_infeasible_program_reports_rows(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3, gamma_low=2, gamma_upp=2,
                            enforce_phase_counts=True)  # 3 phases x 2 > 3 users
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pu_star"))
    with pytest.raises(InfeasibleProgramError) as err:
        branch_and_bound(prog)
    assert err.value.rows  # an irreducible subset is named
    assert any("count" in label for label in err.value.rows)


def test_relaxation_feasible_without_integer_point(twenty_user, monkeypatch):
    feeder, loads = twenty_user
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=2),
                         ObjectiveSpec("pvur_star"))
    rows = []
    for pair in ((0, 1), (1, 2), (0, 2)):  # at most 0.7 on any two phases of user 0
        coef = np.zeros((prog.n_users, 3))
        coef[0, pair] = 1.0
        rows.append((f"pair_{pair[0] + 1}{pair[1] + 1}", coef, 0.7))
    prog = dataclasses.replace(prog, side_rows=prog.side_rows + tuple(rows))
    lp_calls, solvers = [], []
    solve_lp, init = miqp.solve_lp, _BnBSolver.__init__

    def counting_solve_lp(*args, **kwargs):
        lp_calls.append(1)
        return solve_lp(*args, **kwargs)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    monkeypatch.setattr(miqp, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(_BnBSolver, "__init__", recording_init)
    with pytest.raises(InfeasibleProgramError, match="relaxation is feasible") as err:
        branch_and_bound(prog)
    assert err.value.rows == ()
    # the root check and the tree's relaxations; no LP after the tree ends
    assert len(lp_calls) == 1 + solvers[0].relaxations


def test_voltage_bound_rows_steer_solution(line):
    feeder, loads = line
    # v_min high enough that parking every user on one phase is infeasible
    cons = ConstraintConfig(delta_max=3, v_min=0.98, v_max=1.03)
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pvur_star"))
    assert prog.side_rows  # screening kept some voltage rows
    assert not prog.point_feasible(PhaseAssignment((1, 1, 1)))
    res = branch_and_bound(prog, BnBOptions(abs_gap=1e-9, rel_gap=0.0))
    sens = lindist.sensitivity(feeder, loads)
    omega = sens.omega0 + sum(sens.d_omega[i, ph - 1]
                              for i, ph in enumerate(res.assignment.phases))
    assert omega.min() >= cons.v_min ** 2 - 1e-9
    assert omega.max() <= cons.v_max ** 2 + 1e-9


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
def test_leaf_enumeration_with_counts_and_side_row(twenty_user, metric):
    feeder, loads = twenty_user
    cons = ConstraintConfig(delta_max=3, gamma_low=6, gamma_upp=7,
                            enforce_phase_counts=True)
    prog = build_program(feeder, loads, cons, ObjectiveSpec(metric))
    c0, n = prog.c0, prog.n_users
    configs = set()
    for k in range(cons.delta_max + 1):
        for users in itertools.combinations(range(n), k):
            for shifts in itertools.product((1, 2), repeat=k):
                c = list(c0)
                for i, s in zip(users, shifts):
                    c[i] = (c0[i] - 1 + s) % 3 + 1
                configs.add(tuple(c))
    configs = sorted(configs)
    assert len(configs) == 9921 > LEAF_CHUNK
    values = prog.objective_batch(np.array(configs))

    def first_minimum(keep):
        best = None
        for c, v in zip(configs, values):
            if keep(c) and (best is None or v < best[1]):
                best = (c, v)
        return best

    def counts_ok(c):
        return all(6 <= c.count(p) <= 7 for p in (1, 2, 3))

    assert first_minimum(counts_ok) != first_minimum(lambda c: True)  # gamma binds
    forbidden, _ = first_minimum(counts_ok)
    coef = np.zeros((n, 3))
    coef[np.arange(n), np.array(forbidden) - 1] = 1.0
    prog = dataclasses.replace(
        prog, side_rows=prog.side_rows + (("not_forbidden", coef, n - 1.0),))

    def feasible(c):
        delta = np.eye(3)[np.array(c) - 1]
        return counts_ok(c) and all(float(np.sum(row * delta)) <= rhs + 1e-9
                                    for _, row, rhs in prog.side_rows)

    expected, expected_value = first_minimum(feasible)
    assert expected != forbidden
    value, assignment = _BnBSolver(prog, BnBOptions())._enumerate_leaf((0,) * n)
    assert assignment.phases == expected
    assert value == pytest.approx(expected_value, rel=1e-12)


def test_initial_incumbent_used(twenty_user):
    feeder, loads = twenty_user
    cons = ConstraintConfig(delta_max=2)
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pu_star"))
    first = branch_and_bound(prog, BnBOptions())
    res = branch_and_bound(prog, BnBOptions(node_limit=1,
                                            initial_incumbent=first.assignment))
    assert res.objective <= first.objective + 1e-12


def test_gap_options_validated():
    with pytest.raises(ValidationError):
        BnBOptions(abs_gap=-1.0)


# -- differential test against the ld3f oracle ------------------------------------


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@settings(max_examples=60, deadline=None)
@given(case=radial_cases(), budget=st.integers(1, 3), gamma=st.booleans(),
       side_row=st.booleans(), data=st.data())
def test_bnb_matches_ld3f_oracle(metric, case, budget, gamma, side_row, data):
    """Branch and bound with a leaf cap of 1, so every non-trivial node is
    bounded by a relaxation, against exhaustive ld3f enumeration; the side
    rows (screened voltage rows, plus a row forbidding the unconstrained
    optimum when ``side_row``) are checked by plain Python on the ranking."""
    feeder, loads, _ = case
    n_total = len(feeder.users)
    lo = data.draw(st.integers(0, n_total // 3))
    hi = data.draw(st.integers(-(-n_total // 3), n_total))
    cons = ConstraintConfig(delta_max=budget, gamma_low=lo, gamma_upp=hi,
                            enforce_phase_counts=gamma)
    spec = ObjectiveSpec(metric)
    if metric == "pu_star":
        loaded = [br.key for br in feeder.reference_branches()
                  if downstream_users(feeder, br)]
        assume(loaded)
        spec = ObjectiveSpec(metric, balance_branches=loaded)
    prog = build_program(feeder, loads, cons, spec)
    n = prog.n_users
    assume(n > 0)
    try:
        ranking = oracle.enumerate_optimal(Problem(feeder, loads, cons, spec),
                                           evaluator="ld3f").ranking
    except InfeasibleProgramError:
        ranking = ()
    if side_row and ranking:
        coef = np.zeros((n, 3))
        coef[np.arange(n), np.array(ranking[0][1].phases, dtype=int) - 1] = 1.0
        prog = dataclasses.replace(
            prog, side_rows=prog.side_rows + (("not_best", coef, n - 1.0),))

    def meets_rows(phases):
        return all(sum(float(coef[u, ph - 1]) for u, ph in enumerate(phases)) <= rhs + 1e-9
                   for _, coef, rhs in prog.side_rows)

    feasible = [value for value, a in ranking if meets_rows(a.phases)]
    opts = BnBOptions(leaf_enum_cap=1, abs_gap=1e-9, rel_gap=0.0)
    if not feasible:
        with pytest.raises(InfeasibleProgramError):
            branch_and_bound(prog, opts)
        return
    res = branch_and_bound(prog, opts)
    assert res.status == "optimal"
    assert res.relaxations_solved > 0
    assert meets_rows(res.assignment.phases)
    assert abs(res.objective - min(feasible)) <= 1e-9
