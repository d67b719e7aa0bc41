"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (MIQP solutions, enumerations, GA batches) are shared
through module-scoped fixtures so every criterion runs at its stated
tolerance without repeating work.
"""

import time

import numpy as np
import pytest

from phasebal import fixtures, ga, lindist, miqp, oracle, powerflow
from phasebal.metrics import ObjectiveSpec
from phasebal.network import (ConstraintConfig, LoadSeries, PhaseAssignment,
                              original_assignment)
from phasebal.problem import Problem, evaluate, evaluate_exact
from reference_impls import (i2r_losses_percent, injection_series_sequential, newton_pf,
                             ybus_by_hand)

BUDGET_DEFAULT = 5


def _report(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}", flush=True)
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def line_pair():
    return fixtures.fixture("line")


@pytest.fixture(scope="module")
def twenty_pair():
    return fixtures.fixture("twenty_user")


@pytest.fixture(scope="module")
def bnb_budget3(line_pair, twenty_pair):
    """BnB results and enumerated optima at delta_max = 3, both objectives."""
    out = {}
    for tag, (feeder, loads) in (("line", line_pair), ("twenty", twenty_pair)):
        cons = ConstraintConfig(delta_max=3)
        for metric in ("pvur_star", "pu_star"):
            spec = ObjectiveSpec(metric)
            prog = miqp.build_program(feeder, loads, cons, spec)
            started = time.monotonic()
            res = miqp.branch_and_bound(
                prog, miqp.BnBOptions(abs_gap=1e-9, rel_gap=0.0,
                                      leaf_enum_cap=4096))
            elapsed = time.monotonic() - started
            orc = oracle.enumerate_optimal(
                Problem(feeder, loads, cons, spec), evaluator="ld3f")
            out[(tag, metric)] = (res, orc, elapsed)
    return out


@pytest.fixture(scope="module")
def miqp_budget5(twenty_pair):
    """MIQP solutions on the 20-user fixture at the default budget."""
    feeder, loads = twenty_pair
    cons = ConstraintConfig(delta_max=BUDGET_DEFAULT)
    out = {}
    for metric in ("pvur_star", "pu_star"):
        prog = miqp.build_program(feeder, loads, cons, ObjectiveSpec(metric))
        out[metric] = miqp.branch_and_bound(
            prog, miqp.BnBOptions(leaf_enum_cap=16384))
    return out


def _exact_score(feeder, loads, metric, assignment, budget=BUDGET_DEFAULT):
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=budget),
                   ObjectiveSpec(metric))
    return evaluate_exact(prob, assignment).objective


@pytest.fixture(scope="module")
def ga_twenty_runs(twenty_pair):
    feeder, loads = twenty_pair
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=BUDGET_DEFAULT),
                   ObjectiveSpec("pu"))
    results = []
    for seed in range(20):
        cfg = ga.GAConfig(population_size=50, max_fitness_calls=1500,
                          rng_seed=seed)
        results.append(ga.run_ga(prob, cfg))
    return prob, results


# -- criterion 1: oracle equivalence of branch and bound ------------------------


def test_criterion_1_bnb_matches_enumeration(bnb_budget3):
    worst_gap, worst_dev, worst_time = 0.0, 0.0, 0.0
    for (tag, metric), (res, orc, elapsed) in bnb_budget3.items():
        worst_gap = max(worst_gap, res.gap)
        worst_dev = max(worst_dev, abs(res.objective - orc.objective))
        worst_time = max(worst_time, elapsed)
    ok = worst_gap <= 1e-9 and worst_dev <= 1e-9 and worst_time <= 60.0
    _report(1, ok,
            f"BnB equals enumerated optimum on line + twenty_user at budget 3 "
            f"(max deviation {worst_dev:.2e}, max gap {worst_gap:.2e}, "
            f"slowest solve {worst_time:.1f}s <= 60s)")


# -- criterion 2: GA quality -----------------------------------------------------


def test_criterion_2_ga_quality(line_pair, ga_twenty_runs, miqp_budget5,
                                twenty_pair):
    feeder, loads = line_pair
    prob_b = Problem(feeder, loads, ConstraintConfig(delta_max=3),
                     ObjectiveSpec("pu"))
    optimum = oracle.enumerate_optimal(prob_b, evaluator="exact").objective
    hits = 0
    for seed in range(20):
        cfg = ga.GAConfig(population_size=100, max_fitness_calls=2000,
                          rng_seed=seed)
        res = ga.run_ga(prob_b, cfg)
        hits += res.best_fitness <= optimum + 1e-12

    prob_c, results = ga_twenty_runs
    i0 = evaluate_exact(prob_c, original_assignment(prob_c.feeder)).objective
    fitnesses = np.array([r.best_fitness for r in results])
    f20, l20 = twenty_pair
    miqp_score = _exact_score(f20, l20, "pu",
                              miqp_budget5["pu_star"].assignment)
    ok = (hits >= 19 and np.all(fitnesses <= i0 + 1e-12)
          and fitnesses.min() <= miqp_score * 1.05)
    _report(2, ok,
            f"line: {hits}/20 runs reach the enumerated optimum (need >= 19); "
            f"twenty_user: all 20 fitness <= I0={i0:.3f}, "
            f"best {fitnesses.min():.3f} <= MIQP exact {miqp_score:.3f} + 5%")


# -- criterion 3: proxy effectiveness and cross-metric dominance -------------------


def test_criterion_3_proxy_effectiveness(miqp_budget5, twenty_pair):
    feeder, loads = twenty_pair
    a0 = original_assignment(feeder)
    base_pvur = _exact_score(feeder, loads, "pvur", a0)
    base_pu = _exact_score(feeder, loads, "pu", a0)
    a_v = miqp_budget5["pvur_star"].assignment
    a_p = miqp_budget5["pu_star"].assignment
    pvur_red_v = 1.0 - _exact_score(feeder, loads, "pvur", a_v) / base_pvur
    pvur_red_p = 1.0 - _exact_score(feeder, loads, "pvur", a_p) / base_pvur
    pu_red_v = 1.0 - _exact_score(feeder, loads, "pu", a_v) / base_pu
    pu_red_p = 1.0 - _exact_score(feeder, loads, "pu", a_p) / base_pu
    ok = (pvur_red_v >= 0.15 and pvur_red_v >= pvur_red_p
          and pu_red_p >= pu_red_v)
    _report(3, ok,
            f"pvur_star optimization cuts exact PVUR by {pvur_red_v:.1%} "
            f"(>= 15%, and >= pu_star's {pvur_red_p:.1%}); pu_star cuts P_U by "
            f"{pu_red_p:.1%} (>= pvur_star's {pu_red_v:.1%})")


# -- criterion 4: linear-model fidelity ---------------------------------------------


def test_criterion_4_ld3f_fidelity():
    worst = 0.0
    sign_ok = True
    for name in fixtures.FIXTURE_NAMES:
        feeder, loads = fixtures.fixture(name)
        a = original_assignment(feeder)
        state = lindist.evaluate_series(feeder, a, loads)
        sols = powerflow.solve_series(feeder, a, loads)
        for t, sol in enumerate(sols):
            omega, exact = state.omega[t], np.abs(sol.u) ** 2
            worst = max(worst, float(np.abs(omega - exact).max()))
            for br in feeder.branches:
                i = feeder.bus_index(br.from_bus)
                j = feeder.bus_index(br.to_bus)
                for ph in range(3):
                    dl = omega[i, ph] - omega[j, ph]
                    de = exact[i, ph] - exact[j, ph]
                    if abs(dl) < 1e-9 and abs(de) < 1e-9:
                        continue
                    sign_ok &= bool(np.sign(dl) == np.sign(de))
    ok = worst <= 2e-2 and sign_ok
    _report(4, ok,
            f"max |omega - |u|^2| = {worst:.2e} <= 2e-2 across all fixtures; "
            f"per-phase drop signs agree: {sign_ok}")


# -- criterion 5: exact power flow correctness ---------------------------------------


def test_criterion_5_exact_pf():
    worst_mismatch = 0.0
    for name in fixtures.FIXTURE_NAMES:
        feeder, loads = fixtures.fixture(name)
        a = original_assignment(feeder)
        y = ybus_by_hand(feeder)
        ref = feeder.bus_index(feeder.reference_bus)
        idx = np.array([k for k in range(3 * len(feeder.buses))
                        if k // 3 != ref])
        sols = powerflow.solve_series(feeder, a, loads)
        s_all = injection_series_sequential(feeder, a, loads) / feeder.base_power
        for t, sol in enumerate(sols):
            u = sol.u.reshape(-1)
            s_calc = (u * np.conj(y @ u))[idx]
            mismatch = np.abs(s_calc - (-s_all[t].reshape(-1)[idx])).max()
            worst_mismatch = max(worst_mismatch, float(mismatch))

    feeder, loads = fixtures.fixture("line")
    a = PhaseAssignment((1, 1, 1))
    worst_nr = worst_loss = 0.0
    for t in range(loads.horizon):
        sol = powerflow.solve_series(feeder, a, loads.slice_window(t, t + 1))[0]
        u_nr = newton_pf(feeder, a, loads, t)
        worst_nr = max(worst_nr, float(np.abs(sol.u - u_nr).max()))
        worst_loss = max(worst_loss,
                         abs(powerflow.losses(sol, feeder)
                             - i2r_losses_percent(feeder, sol.u)))
    ok = worst_mismatch <= 1e-8 and worst_nr <= 1e-8 and worst_loss <= 1e-8
    _report(5, ok,
            f"node mismatch <= {worst_mismatch:.2e} (tol 1e-8); "
            f"Newton-Raphson agreement {worst_nr:.2e} <= 1e-8; "
            f"loss vs sum(I^2 R) {worst_loss:.2e} <= 1e-8")


# -- criterion 6: switching budget sweep ----------------------------------------------


def test_criterion_6_budget_sweep(twenty_pair):
    feeder, loads = twenty_pair
    grid = (0, 1, 2, 3, 5, 10, 20)
    values = []
    prev = None
    for budget in grid:
        cons = ConstraintConfig(delta_max=budget)
        prog = miqp.build_program(feeder, loads, cons, ObjectiveSpec("pu_star"))
        res = miqp.branch_and_bound(
            prog, miqp.BnBOptions(leaf_enum_cap=16384, time_limit_s=10.0,
                                  initial_incumbent=prev))
        prev = res.assignment
        values.append(res.objective)
    non_increasing = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    total = values[0] - values[-1]
    share = (values[0] - values[2]) / total if total > 0 else 1.0
    ok = non_increasing and share >= 0.40
    _report(6, ok,
            f"objective non-increasing over budgets {grid}: {non_increasing}; "
            f"budget 2 (10% of users) captures {share:.1%} of the achievable "
            f"reduction (>= 40%)")


# -- criterion 7: penalty dominance and call accounting --------------------------------


def test_criterion_7_penalty_accounting(twenty_pair):
    feeder, loads = twenty_pair
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=1),
                   ObjectiveSpec("pu"))
    evaluator = ga.FitnessEvaluator(prob)
    pf_before = evaluator.pf_evaluations
    c0 = list(original_assignment(feeder).phases)
    violating = list(c0)
    for i in range(3):  # three switches, budget is one
        violating[i] = violating[i] % 3 + 1
    value = evaluator(tuple(violating))
    ok = (value == evaluator.m * evaluator.i0
          and evaluator.pf_evaluations == pf_before
          and evaluator.fitness_calls == 1)
    _report(7, ok,
            f"budget-violating candidate scores exactly M*I0 = "
            f"{evaluator.m * evaluator.i0:.3f} with zero power-flow solves")


# -- criterion 8: determinism -----------------------------------------------------------


def test_criterion_8_determinism(line_pair):
    feeder, loads = line_pair
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=3),
                   ObjectiveSpec("pu"))
    runs = [ga.run_ga(prob, ga.GAConfig(population_size=20,
                                        max_fitness_calls=400, rng_seed=7,
                                        threads=threads))
            for threads in (1, 1, 4)]
    same_ga = (runs[0].best == runs[1].best == runs[2].best
               and runs[0].best_fitness == runs[1].best_fitness
               == runs[2].best_fitness)

    cons = ConstraintConfig(delta_max=3)
    prog = miqp.build_program(feeder, loads, cons, ObjectiveSpec("pu_star"))
    r1 = miqp.branch_and_bound(prog)
    r2 = miqp.branch_and_bound(prog)
    same_miqp = (r1.assignment == r2.assignment
                 and r1.objective == r2.objective)
    o1 = oracle.enumerate_optimal(prob, evaluator="exact")
    o2 = oracle.enumerate_optimal(prob, evaluator="exact")
    same_oracle = o1.best == o2.best and o1.objective == o2.objective
    ok = same_ga and same_miqp and same_oracle
    _report(8, ok,
            f"repeated seeded runs identical (GA across thread counts: "
            f"{same_ga}, MIQP: {same_miqp}, oracle: {same_oracle})")
