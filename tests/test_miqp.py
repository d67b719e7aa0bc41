import dataclasses
import itertools
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import reference_impls as ref
from phasebal import fixtures, lindist, miqp, oracle
from phasebal.errors import InfeasibleProgramError, MetricError, ValidationError
from phasebal.metrics import ObjectiveSpec, aggregate
from phasebal.miqp import (LEAF_CHUNK, SCORE_BLOCK, BinaryProgram, BnBOptions, _BnBSolver,
                           _gather_sum, _quadratic_parts, branch_and_bound, build_program)
from phasebal.network import (Branch, ConstraintConfig, Feeder, LoadSeries,
                              PhaseAssignment, User, completion_count, completions,
                              feasible_mask)
from phasebal.problem import (Problem, evaluate, evaluate_exact,
                              metric_values_ld3f)
from strategies import radial_cases

Z_R = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
Z_X = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]


def _append_side_rows(prog, rows):
    """``prog`` with the (label, coef (n, 3), rhs) ``rows`` after its side rows."""
    return dataclasses.replace(
        prog, side_labels=prog.side_labels + tuple(label for label, _, _ in rows),
        side_coef=np.concatenate([prog.side_coef, np.reshape(
            [coef for _, coef, _ in rows], (len(rows), prog.n_users, 3))]),
        side_rhs=np.concatenate([prog.side_rhs, [rhs for _, _, rhs in rows]]))


# -- build_program -------------------------------------------------------------


def test_exact_metrics_rejected(line):
    feeder, loads = line
    for metric in ("pvur", "pu", "iu"):
        with pytest.raises(ValidationError, match="not representable"):
            build_program(feeder, loads, ConstraintConfig(delta_max=2),
                          ObjectiveSpec(metric))


@pytest.mark.parametrize("field, value", [("leaf_enum_cap", 0), ("leaf_enum_cap", -3),
                                          ("abs_gap", float("nan")), ("abs_gap", float("inf")),
                                          ("abs_gap", -1e-9), ("rel_gap", float("nan")),
                                          ("rel_gap", float("inf")), ("rel_gap", -0.1),
                                          ("node_limit", 0), ("node_limit", -5),
                                          ("time_limit_s", 0.0), ("time_limit_s", -1.0),
                                          ("time_limit_s", float("nan")),
                                          ("time_limit_s", -float("inf"))])
def test_bnb_options_reject(field, value):
    with pytest.raises(ValidationError, match=field):
        BnBOptions(**{field: value})


def test_tiny_time_limit_still_processes_the_root(twenty_user):
    """A limit that has run out before the search starts stops it only after
    the root, so the bound and gap it reports are finite."""
    feeder, loads = twenty_user
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=2),
                         ObjectiveSpec("pu_star"))
    assert completion_count(prog.n_users, 2) > BnBOptions().leaf_enum_cap  # no root leaf
    res = branch_and_bound(prog, BnBOptions(time_limit_s=1e-12))
    assert res.nodes >= 1
    assert np.isfinite(res.bound) and np.isfinite(res.gap)
    assert res.bound <= res.objective


def test_no_reconfigurable_users_constant_program():
    feeder = Feeder(
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
        assert np.isclose(prog.objective_at(PhaseAssignment(())), direct, atol=1e-12)
        res = branch_and_bound(prog)
        assert res.status == "optimal"
        assert res.nodes == 1
        assert res.gap == 0.0


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
def test_no_reconfigurable_users_breaking_a_row_is_infeasible(metric):
    z = np.diag([0.2, 0.2, 0.2])
    feeder = Feeder(
        buses=["r", "b1"], branches=[Branch("r", "b1", z, z)], reference_bus="r",
        users=[User("fix", "b1", 1, reconfigurable=False)],
        base_voltage=230.0, base_power=10000.0)
    p = np.full((1, 1), 5000.0)
    loads = LoadSeries(("fix",), p, np.zeros_like(p))
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=1, v_min=0.99),
                         ObjectiveSpec(metric))
    assert prog.n_users == 0
    with pytest.raises(InfeasibleProgramError) as err:
        branch_and_bound(prog)
    assert err.value.rows == ("vmin_b1_t0_ph1",)
    counts = ConstraintConfig(delta_max=1, gamma_low=1, gamma_upp=1,
                              enforce_phase_counts=True)
    with pytest.raises(InfeasibleProgramError) as err:
        branch_and_bound(build_program(feeder, loads, counts, ObjectiveSpec(metric)))
    assert err.value.rows == ("count_low_ph2", "count_low_ph3")


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
       locations=st.integers(1, 4), n_side=st.integers(0, 5), counts=st.booleans())
@settings(max_examples=40, deadline=None)
def test_gather_scoring_matches_references(programs, seed, m, metric, locations,
                                           n_side, counts):
    rng = np.random.default_rng(seed)
    prog = programs[metric]
    if not counts:
        prog = dataclasses.replace(prog, gamma=None)
    t_dim, n = prog.horizon, prog.n_users
    const, coef = (rng.normal(size=(t_dim, locations, 3)),
                   rng.normal(size=(t_dim, locations, 3, n, 3)))
    side = tuple((f"row{r}", rng.normal(size=(n, 3)), rng.normal() * np.sqrt(n))
                 for r in range(n_side))
    # a budget of n leaves the phase counts and side rows to decide the mask
    prog = _append_side_rows(dataclasses.replace(
        prog, delta_max=n, side_labels=(), side_coef=prog.side_coef[:0],
        side_rhs=prog.side_rhs[:0]), side)
    weight = None if metric == "pvur_star" else rng.uniform(0.5, 2.0, locations)
    prog = dataclasses.replace(prog, const=const, coef=coef, branch_weight=weight)
    phases = rng.integers(1, 4, size=(m, n)).astype(np.int8)

    values = prog.objective_batch(phases)
    assert np.array_equal(values, ref.objective_sequential(prog, phases))
    np.testing.assert_allclose(values, ref.objective_einsum(prog, phases), rtol=1e-12)
    for anchor in (0, -1):
        assert np.all(prog._leaf_bound(phases, anchor) <= values)

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


@pytest.mark.parametrize("shape", [(4, 19), (4, 21), (4,), (2, 4, 20)])
def test_feasible_mask_rejects_wrong_width(programs, shape):
    with pytest.raises(ValidationError, match="configurations of shape"):
        programs["pu_star"].feasible_mask(np.ones(shape, dtype=int))


def test_gather_sum_edge_shapes():
    assert SCORE_BLOCK < 600  # the property test above crosses a block
    assert np.array_equal(_gather_sum(np.zeros((0, 4)), np.zeros((5, 0), dtype=int)),
                          np.zeros((5, 4)))
    assert _gather_sum(np.ones((6, 4)), np.zeros((0, 2), dtype=int)).shape == (0, 4)


@given(case=radial_cases(), gamma=st.booleans(), v_min=st.floats(0.9, 0.999),
       n_extra=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_node_base_rows_equal_row_by_row_reference(case, gamma, v_min, n_extra, data):
    """A node's LP rows are byte for byte the ones built row by row, for a
    random partial fixing, with and without phase-count rows and with
    appended side rows."""
    feeder, loads, rng = case
    n_total = len(feeder.users)
    cons = ConstraintConfig(delta_max=data.draw(st.integers(0, 4)),
                            gamma_low=data.draw(st.integers(0, n_total // 3)),
                            gamma_upp=data.draw(st.integers(-(-n_total // 3), n_total)),
                            v_min=v_min, enforce_phase_counts=gamma)
    prog = build_program(feeder, loads, cons, ObjectiveSpec("pvur_star"))
    n = prog.n_users
    prog = _append_side_rows(prog, [(f"extra{r}", rng.normal(size=(n, 3)),
                                     float(rng.normal() * np.sqrt(n)))
                                    for r in range(n_extra)])
    fixed = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    *got, free = _BnBSolver(prog, BnBOptions())._node_base_rows(fixed)
    *want, labels, want_free = ref.node_base_rows_loop(prog, fixed)
    for a, b in zip(got, want):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    assert list(free) == want_free
    assert prog.rows[2] == tuple(labels)


def _random_case_spec(feeder, metric):
    """The objective on a random radial case; a pu_star case whose
    reference branches feed no user has nothing to balance and is rejected."""
    spec = ObjectiveSpec(metric)
    if metric == "pu_star":
        try:
            spec.branches_for(feeder)
        except MetricError:
            reject()
    return spec


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@given(case=radial_cases(), m=st.integers(1, 600))
@settings(max_examples=40, deadline=None)
def test_leaf_bound_never_exceeds_objective(metric, case, m):
    feeder, loads, rng = case
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=3),
                         _random_case_spec(feeder, metric))
    assume(prog.n_users > 0)
    phases = rng.integers(1, 4, size=(m, prog.n_users)).astype(np.int8)
    values = prog.objective_batch(phases)
    for anchor in (0, -1):
        bound = prog._leaf_bound(phases, anchor)
        assert np.all(bound <= values)  # bitwise, no tolerance
        if metric == "pvur_star":  # the anchor keeps its own worst entries
            assert bound[anchor] == values[anchor]


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@given(case=radial_cases(), budget=st.integers(1, 4), chunk=st.integers(1, 40),
       side_row=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_leaf_with_incumbent_matches_plain_leaf(metric, case, budget, chunk, side_row,
                                                data):
    """A leaf given an incumbent returns exactly the plain leaf's first
    minimum whenever that is below the incumbent; small chunks make the
    leaf's own best prune later chunks.  The plain leaf is the brute-force
    first minimum over every feasible completion, with no bound pass."""
    feeder, loads, rng = case
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=budget),
                         _random_case_spec(feeder, metric))
    n = prog.n_users
    assume(n > 0)
    if side_row:
        row = ("random", rng.normal(size=(n, 3)), float(rng.normal() * np.sqrt(n)))
        prog = _append_side_rows(prog, [row])
    fixed = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    solver = _BnBSolver(prog, BnBOptions())
    left = budget - solver._used(fixed)
    assume(left >= 0)
    cands = completions(prog.c0, fixed, left)
    feasible = cands[prog.feasible_mask(cands)]
    scores = prog.objective_batch(feasible)
    values = sorted(scores)
    inc = data.draw(st.sampled_from([np.inf] + values))
    if data.draw(st.booleans()):
        inc = np.nextafter(inc, np.inf)
    with mock.patch.object(miqp, "LEAF_CHUNK", chunk):
        plain_value, plain = solver._enumerate_leaf(fixed)
        value, assignment = solver._enumerate_leaf(fixed, inc)
    if len(feasible):
        first = int(np.argmin(scores))
        assert (plain_value, plain) == (scores[first], PhaseAssignment(feasible[first]))
    else:
        assert (plain_value, plain) == (np.inf, None)
    if plain_value < inc:
        assert (value, assignment) == (plain_value, plain)
    else:
        assert assignment is None or value >= plain_value


def _program(metric, c0, const, coef, delta_max, weight=None):
    """A program with the given objective columns and no side row."""
    n = len(c0)
    return BinaryProgram(
        users=tuple(f"u{i}" for i in range(n)), c0=c0, objective_kind=metric,
        horizon=len(const), delta_max=delta_max, gamma=None, fixed_phase_counts=(0, 0, 0),
        const=const, coef=coef, branch_weight=weight, side_labels=(),
        side_coef=np.zeros((0, n, 3)), side_rhs=np.zeros(0))


def _random_program(data, metric):
    """A program over 0-6 users with random objective columns, spread over
    twelve decades so that another order of additions rounds differently."""
    n, t_dim, locs = (data.draw(st.integers(0, 6)), data.draw(st.integers(1, 3)),
                      data.draw(st.integers(1, 2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    const = rng.normal(size=(t_dim, locs, 3)) * 10.0 ** rng.integers(-6, 7)
    coef = rng.normal(size=(t_dim, locs, 3, n, 3)) \
        * 10.0 ** rng.integers(-6, 7, size=(1, 1, 1, n, 1))
    weight = rng.uniform(0.5, 2.0, locs) if metric == "pu_star" else None
    return _program(metric, tuple(rng.integers(1, 4, n).tolist()), const, coef, n, weight)


def _random_leaf(data, prog):
    """A partial configuration (0 = free), a switch budget and one kept
    column per timestep, with all the leaf's completions, their carried sums
    and their ``_finish_bound``."""
    n, width = prog.n_users, prog.const.size // prog.horizon
    fixed = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    budget = data.draw(st.integers(-1, n + 1))
    keep = np.arange(prog.horizon) * width + np.array(
        data.draw(st.lists(st.integers(0, width - 1), min_size=prog.horizon,
                           max_size=prog.horizon)))
    rows, sums = completions(prog.c0, fixed, budget, prog._objective_columns[:, keep])
    return fixed, budget, keep, rows, sums, prog._finish_bound(sums.copy(), keep)


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_prefix_bound_never_exceeds_finish_bound(metric, data):
    """Every prefix's bound is bitwise <= the ``_finish_bound`` of every
    completion of it, and the same in blocks of any size; the prefix sums
    are built as ``completions`` carries them, from +0 in user order."""
    prog = _random_program(data, metric)
    fixed, budget, keep, rows, _, finish = _random_leaf(data, prog)
    bound = prog._prefix_bound(fixed, keep, budget)
    columns, c0 = prog._objective_columns[:, keep], np.array(prog.c0)
    free = np.flatnonzero(np.array(fixed, dtype=int) == 0)
    for pos in free.tolist():
        upto = free[free <= pos]
        left = budget - np.count_nonzero(rows[:, upto] != c0[upto], axis=1)
        prefix = _gather_sum(columns[:3 * (pos + 1)], rows[:, :pos + 1])
        values = bound(pos, prefix, left)
        assert np.all(values <= finish)
        with mock.patch.object(miqp, "PREFIX_BLOCK", data.draw(st.integers(1, 7))):
            assert bound(pos, prefix, left).tobytes() == values.tobytes()


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_completions_with_prefix_filter_drop_only_bounded_rows(metric, data):
    """``completions`` with the prefix bound as its filter returns the
    unfiltered rows in order, less only rows whose ``_finish_bound``
    exceeds the limit, and their sums bitwise."""
    prog = _random_program(data, metric)
    fixed, budget, keep, rows, sums, finish = _random_leaf(data, prog)
    limit = data.draw(st.sampled_from([np.inf, -1.0] + sorted(finish.tolist())))
    limit = np.nextafter(limit, data.draw(st.sampled_from([limit, np.inf, -np.inf])))
    bound = prog._prefix_bound(fixed, keep, budget)
    got, got_sums = completions(prog.c0, fixed, budget, prog._objective_columns[:, keep],
                                lambda pos, s, left: bound(pos, s, left) <= limit)
    index = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    picked = np.array([index[row] for row in map(tuple, got.tolist())], dtype=int)
    assert np.all(np.diff(picked) > 0)
    assert np.all(finish[np.setdiff1d(np.arange(len(rows)), picked)] > limit)
    for a, b in ((got, rows[picked]), (got_sums, sums[picked])):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def test_prefix_bound_keeps_a_tie_at_zero():
    """The first completion scores exactly 0, as 0.1 + 0.2 - fl(0.1 + 0.2);
    the prefix bound adds the same numbers in another order, so only a
    slack at the scale of the entries keeps that tie below an incumbent of
    the smallest positive float."""
    coef = np.zeros((1, 1, 3, 2, 3))
    coef[0, 0, 0] = [[0.1, 1.0, 1.0], [0.2, 1.0, 1.0]]
    const = np.array([[[-(0.1 + 0.2), 0.0, 0.0]]])
    prog = _program("pvur_star", (1, 1), const, coef, delta_max=1)
    assert prog.objective_at(PhaseAssignment((1, 1))) == 0.0
    assert 0.1 + (0.2 + const[0, 0, 0]) != 0.0  # the other order does not cancel
    solver = _BnBSolver(prog, BnBOptions())
    for fixed in ((0, 1), (0, 0)):
        value, assignment = solver._enumerate_leaf(fixed, np.nextafter(0.0, 1.0))
        assert (value, assignment) == (0.0, PhaseAssignment((1, 1)))


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
    vals = metric_values_ld3f(prob.objective, prob.sites, state)
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


def test_iis_among_many_side_rows_takes_few_lps(line, monkeypatch):
    """Among 200 side rows that no point can break, the deletion filter names
    the three rows that conflict, and it solves far fewer LPs than rows."""
    feeder, loads = line
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=3),
                         ObjectiveSpec("pvur_star"))
    n = prog.n_users
    rng = np.random.default_rng(11)
    rows = []
    for r in range(200):  # the worst one-hot point stays below the rhs
        coef = rng.normal(size=(n, 3))
        rows.append((f"slack{r}", coef, float(coef.max(axis=1).sum()) + 0.1))
    for pair in ((0, 1), (1, 2), (0, 2)):  # any two of user 0's phases at most 0.5
        coef = np.zeros((n, 3))
        coef[0, pair] = 1.0
        rows.insert(int(rng.integers(len(rows) + 1)),
                    (f"pair_{pair[0] + 1}{pair[1] + 1}", coef, 0.5))
    prog = _append_side_rows(prog, rows)
    lp_calls = []
    solve_lp = miqp.solve_lp

    def counting_solve_lp(*args, **kwargs):
        lp_calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(miqp, "solve_lp", counting_solve_lp)
    with pytest.raises(InfeasibleProgramError) as err:
        branch_and_bound(prog)
    labels = prog.rows[2]
    assert sorted(err.value.rows) == ["pair_12", "pair_13", "pair_23"]
    assert len(lp_calls) < len(labels) / 4

    a_eq, b_eq, a_ub, b_ub, _ = _BnBSolver(prog, BnBOptions())._node_base_rows((0,) * n)

    def status(keep):
        return solve_lp(np.zeros(3 * n), a_ub[keep], b_ub[keep], a_eq, b_eq).status

    named = [labels.index(label) for label in err.value.rows]
    assert status(named) == "infeasible"
    for r in named:  # so the named rows less r are feasible too: irreducible
        assert status([k for k in range(len(labels)) if k != r]) == "optimal"


def test_relaxation_feasible_without_integer_point(twenty_user, monkeypatch):
    feeder, loads = twenty_user
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=2),
                         ObjectiveSpec("pvur_star"))
    rows = []
    for pair in ((0, 1), (1, 2), (0, 2)):  # at most 0.7 on any two phases of user 0
        coef = np.zeros((prog.n_users, 3))
        coef[0, pair] = 1.0
        rows.append((f"pair_{pair[0] + 1}{pair[1] + 1}", coef, 0.7))
    prog = _append_side_rows(prog, rows)
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
    assert prog.side_labels  # screening kept some voltage rows
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
    prog = _append_side_rows(prog, [("not_forbidden", coef, n - 1.0)])

    def feasible(c):
        delta = np.eye(3)[np.array(c) - 1]
        return counts_ok(c) and all(float(np.sum(row * delta)) <= rhs + 1e-9
                                    for row, rhs in zip(prog.side_coef, prog.side_rhs))

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


# -- node working sets -------------------------------------------------------------


def _first_lp_point(prog, metric):
    """The delta part of the root node's first LP point; that LP holds no
    side row, so appending side rows does not move it."""
    solver, points = _BnBSolver(prog, BnBOptions()), []
    solve_lp = miqp.solve_lp

    def recording_solve_lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        points.append(res.x[:3 * prog.n_users])
        return res

    with mock.patch.object(miqp, "solve_lp", recording_solve_lp):
        if metric == "pvur_star":
            solver._solve_lp_node((0,) * prog.n_users, ((), ()))
        else:
            solver._solve_qp_node((0,) * prog.n_users, np.inf, ((), ()))
    return points[0]


def _cutting_rows(prog, x, rng, count):
    """``count`` random side rows that the original configuration meets and
    the flattened (n, 3) point ``x`` breaks: each rhs lies halfway between."""
    c0 = np.eye(3)[np.array(prog.c0) - 1].ravel()
    rows = []
    for r in range(count):
        coef = rng.normal(size=3 * prog.n_users)
        if coef @ x < coef @ c0:
            coef = -coef
        rows.append((f"cut{r}", coef.reshape(-1, 3), float(coef @ (x + c0) / 2)))
    return rows


def _node_program(fixture, metric, seed):
    """The first six steps of ``fixture`` at budget 3, with three side rows
    that the root's first LP point breaks."""
    feeder, loads = fixture
    loads = LoadSeries(loads.user_ids, loads.p[:6], loads.q[:6], loads.resolution_s)
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=3), ObjectiveSpec(metric))
    x = _first_lp_point(prog, metric)
    return _append_side_rows(prog, _cutting_rows(prog, x, np.random.default_rng(seed), 3))


def _random_fixings(prog, rng, count):
    """The root, then ``count`` random partial fixings within the budget."""
    out = [(0,) * prog.n_users]
    while len(out) <= count:
        fixed = tuple(int(ph) if rng.random() < 0.3 else 0
                      for ph in rng.integers(1, 4, prog.n_users))
        if _BnBSolver(prog, BnBOptions())._used(fixed) <= prog.delta_max:
            out.append(fixed)
    return out


def _full_epigraph_lp(prog, fixed):
    """One cold LP over every row of the node: the one-hot, budget and side
    rows, and both signs of every epigraph deviation."""
    solver = _BnBSolver(prog, BnBOptions())
    a_eq, b_eq, a_ub, b_ub, free = solver._node_base_rows(fixed)
    const, coef = solver._node_dev(fixed, free)
    t_dim, nv = prog.horizon, 3 * len(free)
    cuts = np.concatenate([coef, -coef], axis=2).reshape(-1, nv)
    m_cols = np.repeat(np.eye(t_dim), cuts.shape[0] // t_dim, axis=0)
    a_ub = np.block([[a_ub, np.zeros((len(a_ub), t_dim))], [cuts, -m_cols]])
    b_ub = np.concatenate([b_ub, np.concatenate([-const, const], axis=2).ravel()])
    a_eq = np.hstack([a_eq, np.zeros((len(a_eq), t_dim))])
    c = np.r_[np.zeros(nv), np.full(t_dim, 1.0 / t_dim)]
    return miqp.solve_lp(c, a_ub, b_ub, a_eq, b_eq)


@pytest.mark.parametrize("name", ["line", "twenty_user"])
def test_node_lp_equals_full_polytope_lp(request, name):
    """A node LP carries only the rows that bind, yet bounds the full
    polytope: the pvur_star value equals one LP over every epigraph and
    side row, also when started from the rows its parent hands down, and a
    node started from its own hand-down needs no further row; every
    pu_star oracle vertex meets every side row, and the node hands down
    every side row a vertex broke."""
    fixture = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    prog = _node_program(fixture, "pvur_star", 1)
    root = _BnBSolver(prog, BnBOptions())
    st, _, _, handed = root._solve_lp_node((0,) * prog.n_users, ((), ()))
    assert st == "optimal" and handed[0] and handed[1]  # tight cuts; a broken side row
    for fixed in _random_fixings(prog, rng, 6):
        full = _full_epigraph_lp(prog, fixed)
        for working in (((), ()), handed):
            solver = _BnBSolver(prog, BnBOptions())
            st, value, _, own = solver._solve_lp_node(fixed, working)
            assert st == full.status
            if st == "optimal":
                assert abs(value - full.objective) <= 1e-9
                again = _BnBSolver(prog, BnBOptions())
                st, value, _, _ = again._solve_lp_node(fixed, own)
                assert again.relaxations == 1 and abs(value - full.objective) <= 1e-9
    inherited = []
    solve_node = _BnBSolver._solve_lp_node

    def recording_node(self, fixed, working):
        inherited.append(working)
        return solve_node(self, fixed, working)

    with mock.patch.object(_BnBSolver, "_solve_lp_node", recording_node):
        branch_and_bound(prog, BnBOptions(leaf_enum_cap=1))
    # the line's root LP point is integral, so only twenty_user has children
    assert inherited[0] == ((), ()) and any(cuts for cuts, _ in inherited[1:]) == (name != "line")

    prog = _node_program(fixture, "pu_star", 2)
    calls = []
    solve_lp = miqp.solve_lp

    def recording_solve_lp(c, *args, **kwargs):
        res = solve_lp(c, *args, **kwargs)
        calls.append((np.array(c), res))
        return res

    resolved = 0
    for fixed in _random_fixings(prog, rng, 6):
        _, _, _, b_ub, free = _BnBSolver(prog, BnBOptions())._node_base_rows(fixed)
        base = len(b_ub) - len(prog.side_rhs)
        side_a = prog.side_coef[:, free].reshape(len(prog.side_rhs), -1)
        side_b = b_ub[base:]
        calls.clear()
        with mock.patch.object(miqp, "solve_lp", recording_solve_lp):
            _, _, _, (_, side) = _BnBSolver(prog, BnBOptions())._solve_qp_node(
                fixed, np.inf, ((), ()))
        broken = set()
        for i, (c, res) in enumerate(calls):
            if res.status != "optimal":
                continue
            broken |= set(np.flatnonzero(side_a @ res.x > side_b + 1e-9).tolist())
            if i + 1 == len(calls) or not np.array_equal(c, calls[i + 1][0]):
                assert np.all(side_a @ res.x <= side_b + 1e-9)  # the oracle's vertex
            else:
                resolved += 1
        assert broken <= set(side)
    assert resolved  # some vertex broke a side row and was re-solved


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
def test_every_lazy_resolve_is_a_counted_relaxation(twenty_user, metric):
    """The root's first LP point breaks a side row, so the root re-solves;
    every solve_lp call is still the root check or a counted relaxation."""
    prog = _node_program(twenty_user, metric, 3)
    calls, handed = [], []
    solve_lp = miqp.solve_lp
    node = "_solve_lp_node" if metric == "pvur_star" else "_solve_qp_node"
    solve_node = getattr(_BnBSolver, node)

    def counting_solve_lp(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    def recording_node(self, *args):
        out = solve_node(self, *args)
        handed.append(out[3][1])
        return out

    with mock.patch.object(miqp, "solve_lp", counting_solve_lp), \
            mock.patch.object(_BnBSolver, node, recording_node):
        res = branch_and_bound(prog, BnBOptions(leaf_enum_cap=27))
    first_cut = len(prog.side_rhs) - 3
    assert set(handed[0]) & set(range(first_cut, len(prog.side_rhs)))
    assert len(calls) == res.relaxations_solved + 1


# -- closed-form Frank-Wolfe oracle ------------------------------------------------


def _captured_greedy(prog, fixed):
    """The closed-form oracle ``greedy`` of ``fixed``'s node, taken from a
    run of that node's Frank-Wolfe bound, and the gradients the run asked
    it about; (None, []) when the run never called it."""
    seen = {"greedy": None, "costs": []}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "greedy" \
                and frame.f_code.co_filename == miqp.__file__:
            seen["greedy"] = frame.f_back.f_locals["greedy"]
            seen["costs"].append(frame.f_locals["c"].copy())

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _BnBSolver(prog, BnBOptions())._solve_qp_node(fixed, np.inf, ((), ()))
    finally:
        sys.setprofile(previous)
    return seen["greedy"], seen["costs"]


@pytest.mark.parametrize("name", ["line", "twenty_user"])
def test_closed_form_vertex_is_the_lp_vertex(request, name):
    """Whenever the closed form serves, on a node's real Frank-Wolfe
    gradients and on random costs, its vertex is the one cold LP's over
    every row of the node, and it meets every side row."""
    prog = _node_program(request.getfixturevalue(name), "pu_star", 4)
    assert prog.gamma is None
    rng = np.random.default_rng(6)
    served = declined = 0
    for fixed in _random_fixings(prog, rng, 6):
        greedy, costs = _captured_greedy(prog, fixed)
        if greedy is None:
            continue  # an infeasible node stops at its first LP
        a_eq, b_eq, a_ub, b_ub, _ = _BnBSolver(prog, BnBOptions())._node_base_rows(fixed)
        for c in costs + list(rng.normal(size=(20, len(costs[0])))):
            v = greedy(c)
            if v is None:
                declined += 1
                continue
            served += 1
            lp = miqp.solve_lp(c, a_ub, b_ub, a_eq, b_eq)
            assert lp.status == "optimal"
            assert np.max(np.abs(lp.x - v)) <= 1e-9
            assert np.all(a_ub @ v <= b_ub + 1e-9)
    assert served and declined


def test_closed_form_oracle_declines(line):
    """The closed form gives way to the LP when gamma is enforced, on each
    exact tie (a moved user's two cheapest other phases, a zero gain, equal
    gains either side of a binding budget) and when its vertex breaks a
    side row."""
    feeder, loads = line
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=2), ObjectiveSpec("pu_star"))
    n, root = prog.n_users, (0,) * prog.n_users
    assert n == 3 and not len(prog.side_rhs)
    others = [[ph for ph in range(3) if ph != c - 1] for c in prog.c0]  # 0-based

    def costs(gains, tied=()):
        """Costs by which user u gains ``gains[u]`` moving off c0 to its
        first other phase; the second ties it for the users ``tied``."""
        c = np.zeros((n, 3))
        for u, gain in enumerate(gains):
            c[u, others[u]] = -gain, -gain + (u not in tied)
        return c.ravel()

    def vertex(moved):
        """The users ``moved`` on their first other phase, the rest on c0."""
        v = np.zeros((n, 3))
        for u in range(n):
            v[u, others[u][0] if u in moved else prog.c0[u] - 1] = 1.0
        return v.ravel()

    greedy, _ = _captured_greedy(prog, root)
    assert np.array_equal(greedy(costs([3.0, 2.0, -1.0])), vertex({0, 1}))
    assert np.array_equal(greedy(costs([2.0, 2.0, -1.0])), vertex({0, 1}))
    assert np.array_equal(greedy(costs([3.0, 2.0, 1.0])), vertex({0, 1}))  # budget binds
    assert np.array_equal(greedy(costs([3.0, -1.0, -2.0], tied=(1,))), vertex({0}))
    assert greedy(costs([3.0, 2.0, -1.0], tied=(0,))) is None
    assert greedy(costs([3.0, 2.0, 0.0])) is None
    assert greedy(costs([3.0, 2.0, 2.0])) is None

    forbid = _append_side_rows(prog, [("not_greedy", vertex({0, 1}).reshape(n, 3), n - 1.0)])
    greedy, _ = _captured_greedy(forbid, root)
    assert greedy(costs([3.0, 2.0, -1.0])) is None
    assert np.array_equal(greedy(costs([3.0, -1.0, -2.0])), vertex({0}))

    counted = build_program(feeder, loads, ConstraintConfig(
        delta_max=2, enforce_phase_counts=True, gamma_upp=len(feeder.users)),
        ObjectiveSpec("pu_star"))
    for program, closed_form in ((prog, True), (counted, False)):
        solver = _BnBSolver(program, BnBOptions())
        assert solver._solve_qp_node(root, np.inf, ((), ()))[0] == "optimal"
        assert bool(solver.closed_form) == closed_form
    assert _captured_greedy(counted, root) == (None, [])


def test_closed_form_oracle_halves_the_lps(twenty_user):
    """At budget 5 on twenty_user the pu_star search keeps its 70 nodes and
    its optimum, with at most half the 2,127 relaxations it solved when
    every Frank-Wolfe oracle call was an LP."""
    feeder, loads = twenty_user
    prog = build_program(feeder, loads, ConstraintConfig(delta_max=5), ObjectiveSpec("pu_star"))
    calls = []
    solve_lp = miqp.solve_lp

    def counting_solve_lp(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    with mock.patch.object(miqp, "solve_lp", counting_solve_lp):
        res = branch_and_bound(prog, BnBOptions(leaf_enum_cap=16384))
    assert len(calls) <= 1063 and len(calls) == res.relaxations_solved + 1
    assert (res.status, res.nodes) == ("optimal", 70) and res.closed_form_vertices
    assert res.objective == pytest.approx(2.6413841827139843, rel=1e-12)


# -- differential test against the ld3f oracle ------------------------------------


def _oracle_case(metric, case, budget, gamma, side_row, data):
    """A program from a random radial case, the ld3f oracle's ranking, the
    ranked values that meet the program's side rows (screened voltage rows,
    plus a row forbidding the unconstrained optimum when ``side_row``) and
    that side-row check in plain Python."""
    feeder, loads, _ = case
    n_total = len(feeder.users)
    lo = data.draw(st.integers(0, n_total // 3))
    hi = data.draw(st.integers(-(-n_total // 3), n_total))
    cons = ConstraintConfig(delta_max=budget, gamma_low=lo, gamma_upp=hi,
                            enforce_phase_counts=gamma)
    spec = _random_case_spec(feeder, metric)
    prog = build_program(feeder, loads, cons, spec)
    n = prog.n_users
    try:
        ranking = oracle.enumerate_optimal(Problem(feeder, loads, cons, spec),
                                           evaluator="ld3f").ranking
    except InfeasibleProgramError:
        ranking = ()
    if side_row and ranking:
        coef = np.zeros((n, 3))
        coef[np.arange(n), np.array(ranking[0][1].phases, dtype=int) - 1] = 1.0
        prog = _append_side_rows(prog, [("not_best", coef, n - 1.0)])

    def meets_rows(phases):
        return all(sum(float(coef[u, ph - 1]) for u, ph in enumerate(phases)) <= rhs + 1e-9
                   for coef, rhs in zip(prog.side_coef, prog.side_rhs))

    feasible = [value for value, a in ranking if meets_rows(a.phases)]
    return prog, ranking, feasible, meets_rows


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@settings(max_examples=60, deadline=None)
@given(case=radial_cases(), budget=st.integers(1, 3), gamma=st.booleans(),
       side_row=st.booleans(), data=st.data())
def test_bnb_matches_ld3f_oracle(metric, case, budget, gamma, side_row, data):
    """Branch and bound with a leaf cap of 1, so every non-trivial node is
    bounded by a relaxation, against exhaustive ld3f enumeration."""
    prog, _, feasible, meets_rows = _oracle_case(metric, case, budget, gamma,
                                                 side_row, data)
    opts = BnBOptions(leaf_enum_cap=1, abs_gap=1e-9, rel_gap=0.0)
    if not feasible:
        with pytest.raises(InfeasibleProgramError):
            branch_and_bound(prog, opts)
        return
    res = branch_and_bound(prog, opts)
    assert res.status == "optimal"
    assert (res.relaxations_solved > 0) == (prog.n_users > 0)
    assert meets_rows(res.assignment.phases)
    assert abs(res.objective - min(feasible)) <= 1e-9


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
@settings(max_examples=40, deadline=None)
@given(case=radial_cases(), budget=st.integers(1, 3), gamma=st.booleans(),
       side_row=st.booleans(), data=st.data())
def test_bnb_large_leaf_cap_matches_ld3f_oracle(metric, case, budget, gamma, side_row,
                                                data):
    """The root is one leaf holding every completion, and a ranked
    configuration is the initial incumbent, so leaf pruning against both
    the incumbent and the leaf's own best is exercised."""
    prog, ranking, feasible, meets_rows = _oracle_case(metric, case, budget, gamma,
                                                       side_row, data)
    initial = ranking[data.draw(st.integers(0, len(ranking) - 1))][1] if ranking else None
    opts = BnBOptions(leaf_enum_cap=completion_count(prog.n_users, budget),
                      initial_incumbent=initial, abs_gap=1e-9, rel_gap=0.0)
    if not feasible:
        with pytest.raises(InfeasibleProgramError):
            branch_and_bound(prog, opts)
        return
    res = branch_and_bound(prog, opts)
    assert (res.status, res.nodes, res.relaxations_solved) == ("optimal", 1, 0)
    assert meets_rows(res.assignment.phases)
    assert abs(res.objective - min(feasible)) <= 1e-9
