"""Benchmark workloads: seeded inputs, the timed op and its output check.

Every workload plans on the ``twenty_user`` feeder (20 reconfigurable
users).  The workload seed is the seed of the hourly planning profiles
(T=24), so the default seed 7 reproduces the bundled fixture.  The GA seed
base, the unseen validation horizon and the planning days that
``miqp_plan`` and ``ga_plan`` work through use seeds derived from it.  The
program only ever sees the inputs built here.

A workload has three parts:

* ``warm_up(inputs)`` runs during set-up.  It calls the op's entry point
  once, at the smallest budget, on the input objects of the first timed
  op, which fills the package's identity-keyed caches
  (``powerflow._solver_for``, ``problem._denominator_cache``).
* ``run_op(state, i)`` is timed op ``i``.  It returns the op's output and
  the wall time of each objective's part of it.
* ``check(state, i, output)`` runs outside the timed region and returns
  the list of problems found; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from phasebal import fixtures, ga, harness, miqp, oracle
from phasebal.metrics import ObjectiveSpec
from phasebal.network import (ConstraintConfig, Feeder, LoadSeries,
                              original_assignment)
from phasebal.problem import Problem, evaluate

DEFAULT_SEED = 7
PLANNING_HORIZON = 24
VALIDATION_HORIZON = 720  # 30 days at hourly resolution

PLANNING_DAYS = 16
DAY_STEPS = 12  # one day at two-hour resolution

MIQP_BUDGET = 4
GA_BUDGET = 5
GA_POPULATION = 100  # the GAConfig default
GA_FITNESS_CALLS = 1000  # ten generations
ORACLE_BUDGET = 2
VALIDATE_PLAN_BUDGET = 3

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")

_GA_STREAM, _HORIZON_STREAM, _DAY_STREAM = 1, 2, 3


def derived_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


@dataclass(frozen=True)
class Inputs:
    seed: int
    feeder: Feeder
    loads: LoadSeries
    ga_seed_base: int
    validation_loads: LoadSeries
    days: tuple[LoadSeries, ...]


def _mean_demand(loads: LoadSeries) -> dict[str, float]:
    return {uid: float(loads.p[:, loads.column(uid)].mean()) for uid in loads.user_ids}


def make_inputs(seed: int) -> Inputs:
    """Every input a workload hands to the program, from the seed alone."""
    feeder = fixtures.twenty_user_feeder()
    loads = fixtures.twenty_user_profiles(horizon=PLANNING_HORIZON, seed=seed)
    validation = fixtures.synthetic_profiles(
        _mean_demand(loads), VALIDATION_HORIZON, derived_seed(seed, _HORIZON_STREAM))
    # Days share the fixture's nominal demand, so that their difficulty
    # varies independently rather than with one seed-wide demand level.
    nominal = _mean_demand(fixtures.twenty_user_profiles(horizon=PLANNING_HORIZON))
    days = tuple(fixtures.synthetic_profiles(
        nominal, DAY_STEPS, derived_seed(seed, _DAY_STREAM, i),
        steps_per_day=DAY_STEPS, resolution_s=86400 / DAY_STEPS)
        for i in range(PLANNING_DAYS))
    return Inputs(seed=seed, feeder=feeder, loads=loads,
                  ga_seed_base=derived_seed(seed, _GA_STREAM) % 1_000_000,
                  validation_loads=validation, days=days)


def day(inputs: Inputs, i: int) -> LoadSeries:
    """The planning day of op i."""
    return inputs.days[i % PLANNING_DAYS]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _timed_parts(objectives, run):
    """Run ``run(metric)`` per objective; return outputs and part times."""
    outputs, parts = {}, {}
    for metric in objectives:
        started = time.perf_counter()
        outputs[metric] = run(metric)
        parts[metric] = time.perf_counter() - started
    return outputs, parts


class MiqpPlan:
    """``cmd_optimize(method="miqp")`` for pvur_star and for pu_star.

    Op i plans day i (mod PLANNING_DAYS).  The tree size varies from day
    to day, so a run spreads over several days rather than resting on one.
    """

    name = "miqp_plan"
    objectives = ("pvur_star", "pu_star")

    def warm_up(self, inputs: Inputs) -> dict:
        for metric in self.objectives:
            harness.cmd_optimize(inputs.feeder, day(inputs, 0), "miqp",
                                 ObjectiveSpec(metric), ConstraintConfig(delta_max=1))
        reference = None
        if inputs.seed == DEFAULT_SEED:
            with open(REFERENCE_PATH) as fh:
                reference = json.load(fh)[self.name]
        return {"inputs": inputs, "reference": reference}

    def run_op(self, state: dict, i: int):
        inputs = state["inputs"]
        loads = day(inputs, i)
        return _timed_parts(self.objectives, lambda metric: harness.cmd_optimize(
            inputs.feeder, loads, "miqp", ObjectiveSpec(metric),
            ConstraintConfig(delta_max=MIQP_BUDGET)))

    def check(self, state: dict, i: int, reports: dict) -> list[str]:
        inputs = state["inputs"]
        loads = day(inputs, i)
        reference = state["reference"] if i % PLANNING_DAYS == 0 else None
        rel_gap = miqp.BnBOptions().rel_gap
        problems = []
        for metric, rep in reports.items():
            obj = rep.objective_value
            if rep.solver["status"] != "optimal":
                problems.append(f"{metric}: status {rep.solver['status']}")
            if rep.solver["gap"] > rel_gap * abs(obj):
                problems.append(f"{metric}: gap {rep.solver['gap']} above tolerance")
            if rep.switches > MIQP_BUDGET:
                problems.append(f"{metric}: {rep.switches} switches > {MIQP_BUDGET}")
            plan = harness.assignment_from_payload(inputs.feeder, rep.assignment)
            direct = evaluate(Problem(inputs.feeder, loads,
                                      ConstraintConfig(delta_max=MIQP_BUDGET),
                                      ObjectiveSpec(metric)), plan, "ld3f")
            if not _close(direct, obj, 1e-9):
                problems.append(f"{metric}: ld3f re-evaluation {direct!r} != {obj!r}")
            if reference and not _close(obj, reference[metric]["objective"], 1e-9):
                problems.append(f"{metric}: optimum {obj!r} != reference "
                                f"{reference[metric]['objective']!r}")
        return problems


class GaPlan:
    """``cmd_optimize(method="ga")`` for pu; op i plans day i with GA seed base + i."""

    name = "ga_plan"
    trace_path = os.path.join(OUT_DIR, "ga_trace.csv")

    def _config(self, seed: int, calls: int, population: int) -> ga.GAConfig:
        return ga.GAConfig(population_size=population, max_fitness_calls=calls,
                           rng_seed=seed, threads=1)

    def warm_up(self, inputs: Inputs) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        harness.cmd_optimize(inputs.feeder, day(inputs, 0), "ga", ObjectiveSpec("pu"),
                             ConstraintConfig(delta_max=GA_BUDGET),
                             ga_config=self._config(inputs.ga_seed_base, 4, 4))
        return {"inputs": inputs, "original_fitness": {}}

    def run_op(self, state: dict, i: int):
        inputs = state["inputs"]
        seed = inputs.ga_seed_base + i
        report = harness.cmd_optimize(
            inputs.feeder, day(inputs, i), "ga", ObjectiveSpec("pu"),
            ConstraintConfig(delta_max=GA_BUDGET), seed=seed,
            ga_config=self._config(seed, GA_FITNESS_CALLS, GA_POPULATION),
            trace_path=self.trace_path)
        return report, {}

    def _original_fitness(self, state: dict, i: int) -> float:
        """Fitness of the original configuration on day i, once per day."""
        k = i % PLANNING_DAYS
        if k not in state["original_fitness"]:
            inputs = state["inputs"]
            evaluator = ga.FitnessEvaluator(Problem(
                inputs.feeder, day(inputs, i), ConstraintConfig(delta_max=GA_BUDGET),
                ObjectiveSpec("pu")))
            state["original_fitness"][k] = evaluator(
                original_assignment(inputs.feeder).phases)
        return state["original_fitness"][k]

    def check(self, state: dict, i: int, report) -> list[str]:
        problems = []
        if report.fitness_calls < GA_FITNESS_CALLS:
            problems.append(f"{report.fitness_calls} fitness calls < {GA_FITNESS_CALLS}")
        original = self._original_fitness(state, i)
        if report.objective_value > original:
            problems.append(f"best {report.objective_value!r} worse than the original "
                            f"configuration's {original!r}")
        with open(self.trace_path, newline="") as fh:
            best = [float(row["best"]) for row in csv.DictReader(fh)]
        if not best or any(b > a for a, b in zip(best, best[1:])):
            problems.append("trace best increased between generations")
        elif best[-1] != report.objective_value:
            problems.append("trace best does not end at the reported objective")
        return problems

    def objective(self, report) -> float:
        """Best fitness of the op, reported as ``plan_objective``."""
        return report.objective_value


class Ld3fOracle:
    """``oracle.enumerate_optimal(evaluator="ld3f")`` for pu_star and pvur_star."""

    name = "ld3f_oracle"
    objectives = ("pu_star", "pvur_star")

    def _problem(self, inputs: Inputs, metric: str, budget: int) -> Problem:
        return Problem(inputs.feeder, inputs.loads,
                       ConstraintConfig(delta_max=budget), ObjectiveSpec(metric))

    def warm_up(self, inputs: Inputs) -> dict:
        for metric in self.objectives:
            oracle.enumerate_optimal(self._problem(inputs, metric, 1), evaluator="ld3f")
        return {"inputs": inputs, "bnb": {}}

    def run_op(self, state: dict, i: int):
        inputs = state["inputs"]
        return _timed_parts(self.objectives, lambda metric: oracle.enumerate_optimal(
            self._problem(inputs, metric, ORACLE_BUDGET), evaluator="ld3f"))

    def _bnb_optimum(self, state: dict, metric: str) -> float:
        """Branch-and-bound on the same inputs, solved once per run."""
        if metric not in state["bnb"]:
            inputs = state["inputs"]
            prog = miqp.build_program(inputs.feeder, inputs.loads,
                                      ConstraintConfig(delta_max=ORACLE_BUDGET),
                                      ObjectiveSpec(metric))
            res = miqp.branch_and_bound(prog, miqp.BnBOptions(abs_gap=1e-9,
                                                              rel_gap=0.0))
            state["bnb"][metric] = res.objective
        return state["bnb"][metric]

    def check(self, state: dict, i: int, results: dict) -> list[str]:
        n = len(state["inputs"].feeder.reconfigurable_users())
        expected = sum(math.comb(n, k) * 2 ** k for k in range(ORACLE_BUDGET + 1))
        problems = []
        for metric, res in results.items():
            if res.evaluated != expected:
                problems.append(f"{metric}: {res.evaluated} configurations, "
                                f"closed form gives {expected}")
            bnb = self._bnb_optimum(state, metric)
            if abs(res.objective - bnb) > 1e-9:
                problems.append(f"{metric}: oracle optimum {res.objective!r} != "
                                f"branch-and-bound {bnb!r}")
        return problems


class ValidateLong:
    """``cmd_validate`` of the budget-3 pu_star plan over a 30-day horizon."""

    name = "validate_long"

    def warm_up(self, inputs: Inputs) -> dict:
        report = harness.cmd_optimize(inputs.feeder, inputs.loads, "miqp",
                                      ObjectiveSpec("pu_star"),
                                      ConstraintConfig(delta_max=VALIDATE_PLAN_BUDGET))
        plan = harness.assignment_from_payload(inputs.feeder, report.assignment)
        harness.cmd_validate(inputs.feeder, plan,
                             inputs.validation_loads.slice_window(0, PLANNING_HORIZON))
        return {"inputs": inputs, "plan": plan}

    def run_op(self, state: dict, i: int):
        inputs = state["inputs"]
        return harness.cmd_validate(inputs.feeder, state["plan"],
                                    inputs.validation_loads), {}

    def check(self, state: dict, i: int, report: dict) -> list[str]:
        problems = []
        if report["horizon"] != VALIDATION_HORIZON:
            problems.append(f"horizon {report['horizon']} != {VALIDATION_HORIZON}")
        for metric, by_tag in report["metrics"].items():
            for tag, dist in by_tag.items():
                values = [v for k, v in dist.items() if k != "outliers"] + dist["outliers"]
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{metric}/{tag}: non-finite distribution")
        return problems


WORKLOADS = {cls.name: cls for cls in (MiqpPlan, GaPlan, Ld3fOracle, ValidateLong)}
