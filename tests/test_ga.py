import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import phasebal
from phasebal import fixtures, oracle
from phasebal.errors import ValidationError
from phasebal.ga import (FitnessEvaluator, GAConfig, crossover_single_point,
                         mutate_random_reset, run_ga,
                         tournament_select)
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig, PhaseAssignment
from phasebal.problem import Problem, evaluate_exact


@pytest.fixture(scope="module")
def line_problem(line):
    feeder, loads = line
    return Problem(feeder, loads, ConstraintConfig(delta_max=3),
                   ObjectiveSpec("pu"))


# -- fitness -------------------------------------------------------------------


def test_fitness_of_original_is_baseline(line_problem):
    ev = FitnessEvaluator(line_problem)
    assert ev((1, 1, 1)) == ev.i0
    assert ev.i0 == evaluate_exact(line_problem, PhaseAssignment((1, 1, 1))).objective


def test_budget_violation_costs_penalty_without_pf(line):
    feeder, loads = line
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=1),
                   ObjectiveSpec("pu"))
    ev = FitnessEvaluator(prob)
    pf_before = ev.pf_evaluations
    value = ev((2, 3, 1))  # three switches > budget 1
    assert value == ev.m * ev.i0
    assert ev.pf_evaluations == pf_before
    assert ev.fitness_calls == 1


def test_phase_count_violation_penalized(line):
    feeder, loads = line
    prob = Problem(feeder, loads,
                   ConstraintConfig(delta_max=3, gamma_low=1, gamma_upp=1,
                                    enforce_phase_counts=True),
                   ObjectiveSpec("pu"))
    ev = FitnessEvaluator(prob)
    assert ev((1, 1, 2)) == ev.m * ev.i0   # counts (2,1,0) break [1,1]
    assert ev((1, 2, 3)) < ev.m * ev.i0    # counts (1,1,1) pass


def test_balanced_beats_all_on_one_phase(line_problem):
    ev = FitnessEvaluator(line_problem)
    balanced = ev((1, 2, 3))
    assert balanced < ev.i0
    # equals the metrics pipeline on the exact power flow
    direct = evaluate_exact(line_problem, PhaseAssignment((1, 2, 3))).objective
    assert balanced == direct


def test_operational_violation_adds_penalty(line):
    feeder, loads = line
    tight = ConstraintConfig(delta_max=3, v_min=0.999, v_max=1.001)
    prob = Problem(feeder, loads, tight, ObjectiveSpec("pu"))
    ev = FitnessEvaluator(prob)
    value = ev((1, 2, 3))
    assert value > ev.m * ev.i0  # objective plus penalty


def test_memo_cache_counts_calls_but_not_pf(line_problem):
    ev = FitnessEvaluator(line_problem)
    ev((1, 2, 3))
    pf_after_first = ev.pf_evaluations
    ev((1, 2, 3))
    assert ev.fitness_calls == 2
    assert ev.pf_evaluations == pf_after_first


def test_fitness_oneshot_helper(line_problem):
    # one-shot use of a fresh evaluator
    assert FitnessEvaluator(line_problem)((1, 1, 1)) == FitnessEvaluator(line_problem).i0


# -- operators -------------------------------------------------------------------


def test_tournament_picks_fitter_of_two():
    rng = np.random.default_rng(0)
    pop = [(1, 1), (2, 2)]
    fits = [3.0, 1.0]
    for pa, pb in tournament_select(pop, fits, rng):
        for parent in (pa, pb):
            assert parent in pop
    # forced two-candidate duel: fitter one must win
    wins = sum(1 for _ in range(200)
               for pair in tournament_select(pop, fits, np.random.default_rng(_))
               for p in pair if p == (2, 2))
    assert wins > 200  # clearly favored


def test_tournament_uniform_when_fitness_equal():
    rng = np.random.default_rng(42)
    pop = [(i,) for i in range(8)]
    fits = [1.0] * 8
    counts = np.zeros(8)
    for _ in range(2500):  # 2500 pairs = 10^4 parent draws
        for pa, pb in tournament_select(pop, fits, rng):
            counts[pa[0]] += 1
            counts[pb[0]] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_tournament_pair_count():
    rng = np.random.default_rng(1)
    pop = [(1,), (2,)]
    assert len(tournament_select(pop, [1.0, 2.0], rng)) == 1


def test_crossover_cut_swaps_tails():
    class FixedRng:
        def random(self):
            return 0.0  # always below the crossover probability

        def integers(self, lo, hi):
            return 2

    ca, cb = crossover_single_point((1, 1, 1, 1), (3, 3, 3, 3), 0.7, FixedRng())
    assert ca == (1, 1, 3, 3)
    assert cb == (3, 3, 1, 1)


def test_crossover_disabled_copies_parents():
    rng = np.random.default_rng(0)
    pa, pb = (1, 2, 3), (3, 2, 1)
    assert crossover_single_point(pa, pb, 0.0, rng) == (pa, pb)


def test_crossover_identical_parents():
    rng = np.random.default_rng(0)
    pa = (1, 2, 3, 2)
    ca, cb = crossover_single_point(pa, pa, 1.0, rng)
    assert ca == pa and cb == pa


def test_crossover_length_mismatch():
    with pytest.raises(ValidationError):
        crossover_single_point((1, 2), (1, 2, 3), 1.0, np.random.default_rng(0))


def test_mutation_disabled_is_identity():
    rng = np.random.default_rng(0)
    c = (1, 2, 3, 1, 2)
    assert mutate_random_reset(c, 0.0, rng) == c


def test_mutation_full_rate_uniform():
    rng = np.random.default_rng(7)
    counts = np.zeros(3)
    for _ in range(10000):
        (gene,) = mutate_random_reset((1,), 1.0, rng)
        counts[gene - 1] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


def test_mutation_expected_resets():
    rng = np.random.default_rng(5)
    n = 10
    changed = resampled = 0
    trials = 4000
    for _ in range(trials):
        c = tuple(int(g) for g in rng.integers(1, 4, size=n))
        c2 = mutate_random_reset(c, 1.0 / n, rng)
        changed += sum(a != b for a, b in zip(c, c2))
    # a resampled gene keeps its value 1/3 of the time: E[changed] = 2/3
    assert abs(changed / trials - 2.0 / 3.0) < 0.05


# -- run_ga ----------------------------------------------------------------------


def test_zero_budget_returns_original(line):
    feeder, loads = line
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=0),
                   ObjectiveSpec("pu"))
    cfg = GAConfig(population_size=10, max_fitness_calls=100, rng_seed=3)
    res = run_ga(prob, cfg)
    assert res.best == PhaseAssignment((1, 1, 1))
    assert res.best_fitness == FitnessEvaluator(prob).i0


def test_ga_reaches_oracle_on_line(line_problem):
    best = oracle.enumerate_optimal(line_problem, evaluator="exact").objective
    hits = 0
    for seed in range(5):
        cfg = GAConfig(population_size=20, max_fitness_calls=400, rng_seed=seed)
        res = run_ga(line_problem, cfg)
        hits += res.best_fitness <= best + 1e-12
    assert hits >= 4


def test_ga_deterministic_given_seed(line_problem):
    cfg = GAConfig(population_size=10, max_fitness_calls=120, rng_seed=11)
    r1 = run_ga(line_problem, cfg)
    r2 = run_ga(line_problem, cfg)
    assert r1.best == r2.best
    assert r1.best_fitness == r2.best_fitness
    assert r1.trace == r2.trace
    assert r1.fitness_calls == r2.fitness_calls


def test_ga_deterministic_across_thread_counts(line_problem):
    base = run_ga(line_problem, GAConfig(population_size=10,
                                         max_fitness_calls=120, rng_seed=4,
                                         threads=1))
    threaded = run_ga(line_problem, GAConfig(population_size=10,
                                             max_fitness_calls=120, rng_seed=4,
                                             threads=4))
    assert base.best == threaded.best
    assert base.trace == threaded.trace
    assert base.pf_evaluations == threaded.pf_evaluations


_THREADED_GA = """
import json, sys
from phasebal import fixtures
from phasebal.ga import GAConfig, run_ga
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig
from phasebal.problem import Problem
feeder, loads = fixtures.fixture("twenty_user")
problem = Problem(feeder, loads, ConstraintConfig(delta_max=5), ObjectiveSpec("pu"))
res = run_ga(problem, GAConfig(population_size=100, max_fitness_calls=3000,
                               rng_seed=5, threads=int(sys.argv[1])))
print(json.dumps([list(res.best.phases), res.pf_evaluations]))
"""


def test_threaded_ga_runs_cleanly_and_matches_one_thread():
    """Worker threads once shared one LU pivot array and corrupted the heap;
    each run gets its own process so a native crash shows as an exit code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(phasebal.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(threads):
        out = subprocess.run([sys.executable, "-c", _THREADED_GA, str(threads)],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout)

    base = run(1)
    for _ in range(5):
        assert run(2) == base


def test_ga_call_budget_respected(line_problem):
    cfg = GAConfig(population_size=10, max_fitness_calls=95, rng_seed=0)
    res = run_ga(line_problem, cfg)
    assert res.fitness_calls <= cfg.max_fitness_calls + cfg.population_size


def test_ga_trace_non_increasing(line_problem):
    cfg = GAConfig(population_size=10, max_fitness_calls=200, rng_seed=9)
    res = run_ga(line_problem, cfg)
    best_values = [row[0] for row in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(best_values, best_values[1:]))


def test_ga_config_validation():
    with pytest.raises(ValidationError):
        GAConfig(population_size=7)  # odd
    with pytest.raises(ValidationError):
        GAConfig(crossover_prob=1.5)
    with pytest.raises(ValidationError):
        GAConfig(penalty_multiplier=0.5)


def test_penalty_dominance(line):
    feeder, loads = line
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=1),
                   ObjectiveSpec("pu"))
    ev = FitnessEvaluator(prob)
    bad = ev((2, 3, 1))  # 3 switches > budget 1
    feasible_vals = [ev((1, 1, ph)) for ph in (1, 2, 3)]
    assert bad == ev.m * ev.i0
    assert all(bad >= ev.m * v for v in feasible_vals if v <= ev.i0)
