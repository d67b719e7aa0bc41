import csv
import itertools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebal import fixtures, metrics, oracle
from phasebal.errors import (CapExceededError, InfeasibleProgramError, MetricError,
                             ValidationError)
from phasebal.lindist import Ld3fState
from phasebal.metrics import ObjectiveSpec
from phasebal.network import (ConstraintConfig, LoadSeries, PhaseAssignment,
                              binary_feasible, completion_count, completions,
                              original_assignment)
from phasebal.oracle import enumerate_optimal
from phasebal.problem import Problem, evaluate
from reference_impls import (aggregate_per_call, injection_series_sequential,
                             metric_values_ld3f_per_call, sweep_by_branch)
from strategies import radial_cases


def make_problem(fixture, metric="pu", delta_max=3, **cons):
    feeder, loads = fixture
    return Problem(feeder, loads, ConstraintConfig(delta_max=delta_max, **cons),
                   ObjectiveSpec(metric))


def test_zero_budget_single_candidate(line):
    prob = make_problem(line, delta_max=0)
    res = enumerate_optimal(prob)
    assert res.evaluated == 1
    assert res.best == PhaseAssignment((1, 1, 1))


def test_line_full_enumeration_has_27(line):
    prob = make_problem(line, delta_max=3)
    res = enumerate_optimal(prob)
    assert res.evaluated == 27
    objs = [obj for obj, _ in res.ranking]
    assert objs == sorted(objs)


def test_line_minimum_unique_up_to_phase_symmetry(line):
    prob = make_problem(line, delta_max=3)
    res = enumerate_optimal(prob)
    best_val = res.objective
    winners = {a.phases for obj, a in res.ranking if obj <= best_val + 1e-9}
    # with symmetric impedances and a positive-sequence source, cyclic phase
    # rotations are exact symmetries (swaps flip the sequence and are not)
    pattern = res.best.phases
    orbit = set()
    for shift in range(3):
        orbit.add(tuple((p - 1 + shift) % 3 + 1 for p in pattern))
    assert winners == orbit


def test_two_bus_equal_loads_perfect_balance(two_bus):
    feeder, _ = two_bus
    ids = tuple(u.id for u in feeder.users)
    p = np.full((2, 3), 1000.0)
    loads = LoadSeries(ids, p, np.zeros_like(p))
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=3),
                   ObjectiveSpec("pu"))
    res = enumerate_optimal(prob)
    for phases in itertools.permutations((1, 2, 3)):
        assert evaluate(prob, PhaseAssignment(phases)) < 1e-9
    assert res.objective < 1e-9


def test_budget_prunes_candidates(line):
    prob = make_problem(line, delta_max=1)
    res = enumerate_optimal(prob)
    assert res.evaluated == 7  # 1 + 3 users x 2 alternative phases


def test_phase_count_filter(line):
    prob = make_problem(line, delta_max=3, gamma_low=1, gamma_upp=1,
                        enforce_phase_counts=True)
    res = enumerate_optimal(prob)
    assert res.evaluated == 6  # permutations of (1,2,3)


def test_cap_exceeded(twenty_user):
    prob = make_problem(twenty_user, delta_max=20)
    with pytest.raises(CapExceededError, match="cap"):
        enumerate_optimal(prob, cap=1000)


def test_no_configuration_meets_phase_counts(line):
    # 3 users cannot put at least 2 on each of 3 phases
    prob = make_problem(line, delta_max=3, gamma_low=2, gamma_upp=2,
                        enforce_phase_counts=True)
    with pytest.raises(InfeasibleProgramError, match="phase-count bounds"):
        enumerate_optimal(prob)


@given(st.integers(1, 6), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_count_bound_matches_enumeration(n, budget):
    c0 = tuple(1 for _ in range(n))
    bound = completion_count(n, budget)
    count = 0
    for phases in itertools.product((1, 2, 3), repeat=n):
        if sum(1 for p, p0 in zip(phases, c0) if p != p0) <= budget:
            count += 1
    assert bound == count


def test_iter_feasible_lexicographic(line):
    prob = make_problem(line, delta_max=3)
    c0 = original_assignment(prob.feeder).phases
    seen = [tuple(row) for row in
            completions(c0, (0,) * len(c0), prob.constraints.delta_max).tolist()]
    assert seen == sorted(seen)


def test_rotation_leaves_score_unchanged(line):
    prob = make_problem(line, delta_max=3)
    a = PhaseAssignment((1, 2, 2))
    rotated = PhaseAssignment((2, 3, 3))
    assert np.isclose(evaluate(prob, a), evaluate(prob, rotated), atol=1e-9)


def test_ranking_csv(tmp_path, line):
    prob = make_problem(line, delta_max=1)
    res = enumerate_optimal(prob)
    path = tmp_path / "ranking.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "objective", "configuration"])
        for rank, (obj, a) in enumerate(res.ranking, start=1):
            writer.writerow([rank, repr(obj), " ".join(map(str, a.phases))])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,objective,configuration"
    assert len(lines) == 1 + res.evaluated


def _reference_ranking(prob):
    """(objective, phases) of every configuration within the budget, in
    lexicographic order, each swept branch by branch and scored by the
    per-call metric formulas, then stably sorted."""
    feeder, loads = prob.feeder, prob.loads
    c0 = original_assignment(feeder).phases
    scored = []
    for phases in itertools.product((1, 2, 3), repeat=len(c0)):
        if sum(p != p0 for p, p0 in zip(phases, c0)) > prob.constraints.delta_max:
            continue
        s = injection_series_sequential(feeder, PhaseAssignment(phases), loads) / feeder.base_power
        state = Ld3fState(*sweep_by_branch(feeder, s.real, s.imag))
        values = metric_values_ld3f_per_call(prob.objective, feeder, loads, state)
        scored.append((aggregate_per_call(prob.objective, values), phases))
    scored.sort(key=lambda pair: pair[0])
    return scored


@given(radial_cases(), st.integers(0, 2), st.sampled_from(["pvur_star", "pu_star"]))
@settings(max_examples=60, deadline=None)
def test_ld3f_ranking_bitwise_equals_branch_by_branch_sweeps(case, budget, metric):
    feeder, loads, _ = case
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=budget), ObjectiveSpec(metric))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # timesteps with an undefined flow metric
        try:
            expected = _reference_ranking(prob)
        except MetricError:
            with pytest.raises(MetricError):
                enumerate_optimal(prob, evaluator="ld3f")
            return
        res = enumerate_optimal(prob, evaluator="ld3f")
    assert res.evaluated == len(expected)
    assert [(obj.hex(), a.phases) for obj, a in res.ranking] == \
        [(obj.hex(), phases) for obj, phases in expected]


def _per_configuration_ranking(prob, evaluator):
    """(objective hex, phases) of every feasible configuration, each scored
    by one ``evaluate`` call that solves or sweeps it alone, then stably
    sorted."""
    c0 = original_assignment(prob.feeder).phases
    configs = [a for a in map(PhaseAssignment, completions(c0, (0,) * len(c0),
                                                           prob.constraints.delta_max))
               if binary_feasible(prob.feeder, a, prob.constraints)]
    scored = sorted(((evaluate(prob, a, evaluator), a.phases) for a in configs),
                    key=lambda pair: pair[0])
    return [(obj.hex(), phases) for obj, phases in scored]


@pytest.mark.parametrize("evaluator, metric", [("ld3f", "pu_star"), ("ld3f", "pvur"),
                                               ("exact", "pu"), ("exact", "iu")])
@pytest.mark.parametrize("case, chunk, count", [
    # 41 configurations: not a multiple of the default chunks (16 ld3f, 4 exact)
    ("budget", None, 41),
    ("budget", 5, 41),
    ("budget", 1, 41),
    # the phase-count bounds mask out 555 of the 801 budget-feasible rows
    ("counts", None, 246),
    ("counts", 7, 246),
])
def test_chunked_ranking_equals_per_configuration_evaluate(
        twenty_user, monkeypatch, evaluator, metric, case, chunk, count):
    extra = ({} if case == "budget"
             else {"gamma_low": 6, "gamma_upp": 7, "enforce_phase_counts": True})
    prob = make_problem(twenty_user, metric, delta_max=1 if case == "budget" else 2, **extra)
    if chunk is not None:  # configurations per chunk, at the fixture's T=24
        monkeypatch.setitem(oracle.CHUNK_ROWS, evaluator, chunk * prob.loads.horizon)
    res = enumerate_optimal(prob, evaluator=evaluator)
    assert res.evaluated == count
    assert [(obj.hex(), a.phases) for obj, a in res.ranking] == \
        _per_configuration_ranking(prob, evaluator)


@pytest.mark.parametrize("evaluator", ["ld3f", "exact"])
def test_zero_demand_step_warns_once_per_configuration(line, monkeypatch, evaluator):
    feeder, loads = line
    p, q = loads.p.copy(), loads.q.copy()
    p[3], q[3] = 0.0, 0.0
    prob = make_problem((feeder, LoadSeries(loads.user_ids, p, q, loads.resolution_s)),
                        "pu", delta_max=3)
    monkeypatch.setitem(oracle.CHUNK_ROWS, evaluator, 5 * loads.horizon)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = enumerate_optimal(prob, evaluator=evaluator)
    skipped = [w for w in caught if "skipping 1 of 24 timesteps" in str(w.message)]
    assert res.evaluated == 27
    assert len(skipped) == res.evaluated == len(caught)


def test_unknown_evaluator_fails_before_any_row(line, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("rows generated for an unknown evaluator")

    monkeypatch.setattr(oracle, "completions", no_rows)
    with pytest.raises(ValidationError, match="unknown evaluator 'dc'"):
        enumerate_optimal(make_problem(line), evaluator="dc")


def test_objective_is_resolved_once_per_problem(monkeypatch):
    """The ld3f oracle resolves pu_star's balance branches and denominators
    once for its Problem and still scores each configuration by one
    ``evaluate`` call."""
    feeder, loads = fixtures.fixture("twenty_user")
    calls = {"denominator": 0, "branches_for": 0, "evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "denominator", counted("denominator", metrics.denominator))
    monkeypatch.setattr(ObjectiveSpec, "branches_for",
                        counted("branches_for", ObjectiveSpec.branches_for))
    monkeypatch.setattr(oracle, "evaluate", counted("evaluate", oracle.evaluate))
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=1), ObjectiveSpec("pu_star"))
    res = enumerate_optimal(prob, evaluator="ld3f")
    assert res.evaluated == 41
    n_branches = len(prob.sites.index)
    assert n_branches >= 1
    assert calls == {"denominator": n_branches, "branches_for": 1, "evaluate": 41}


def test_per_problem_caches_are_safe_across_threads(line):
    """Worker threads that score at once on a fresh Problem, whose sites and
    whose loads' demand rows are not yet cached, all get the one-thread
    value."""
    feeder, loads = line
    configs = [PhaseAssignment(p) for p in itertools.product((1, 2, 3), repeat=3)]
    spec, cons = ObjectiveSpec("pu_star"), ConstraintConfig(delta_max=3)
    want = [evaluate(Problem(feeder, loads, cons, spec), a, "ld3f").hex() for a in configs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            fresh = LoadSeries(loads.user_ids, loads.p, loads.q, loads.resolution_s)
            prob = Problem(feeder, fresh, cons, spec)
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda a: evaluate(prob, a, "ld3f").hex(), configs))
            assert got == want
    finally:
        sys.setswitchinterval(old)
