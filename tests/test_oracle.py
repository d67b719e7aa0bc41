import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebal import fixtures
from phasebal.errors import CapExceededError, InfeasibleProgramError
from phasebal.metrics import ObjectiveSpec
from phasebal.network import (ConstraintConfig, LoadSeries, PhaseAssignment,
                              completion_count, completions, original_assignment)
from phasebal.oracle import enumerate_optimal
from phasebal.problem import Problem, evaluate


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
