#!/usr/bin/env python3
"""Print a fingerprint of every optimize report and every sweep report.

For ``cmd_optimize`` it prints one line per (fixture, method, objective):
a sha256 of the report's JSON with ``wall_time_s`` redacted, which is the
only field that may differ between two runs.  The fixtures are ``line``
and ``twenty_user`` over its first 12 steps; the GA runs a small
``GAConfig`` whose seed and threads equal the ``seed`` and ``threads``
passed beside it.  For ``cmd_sweep_switches`` it prints each report's
JSON on one line (floats as ``repr``, so bit for bit), or the error the
sweep raised.  Run it on two checkouts and ``diff`` the outputs to show
that a change leaves every report alone:

    PYTHONPATH=src python3 scripts/compare_reports.py > after.txt
"""

import hashlib
import json

from phasebal import fixtures, ga, harness
from phasebal.errors import PhasebalError
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig

HORIZON = 12  # steps of twenty_user kept
GA_SEED = 0
SMALL_GA = ga.GAConfig(population_size=20, max_fitness_calls=400, rng_seed=GA_SEED)

# (method, objective, switch budget on line, on twenty_user)
OPTIMIZE_CASES = [("ga", "pu", 3, 4), ("miqp", "pu_star", 3, 4),
                  ("miqp", "pvur_star", 3, 4), ("oracle", "pu", 3, 2)]

# (fixture, method, objective, grid)
SWEEP_CASES = [("line", "miqp", "pu_star", (0, 1, 2, 3)),
               ("line", "oracle", "pu", (0, 1, 2, 3)),
               ("twenty_user", "miqp", "pu_star", (0, 1, 2, 3, 5)),
               ("line", "ga", "pu", (0, 1, 2, 3)),
               ("twenty_user", "ga", "pu", (6, 8))]


def inputs(name: str):
    feeder, loads = fixtures.fixture(name)
    return feeder, (loads.slice_window(0, HORIZON) if name == "twenty_user" else loads)


def optimize_line(name: str, method: str, metric: str, budget: int) -> str:
    feeder, loads = inputs(name)
    report = harness.cmd_optimize(
        feeder, loads, method, ObjectiveSpec(metric), ConstraintConfig(delta_max=budget),
        seed=GA_SEED, threads=SMALL_GA.threads,
        ga_config=SMALL_GA if method == "ga" else None)
    report.wall_time_s = None
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    return f"optimize {name} {method} {metric} delta_max={budget} {digest}"


def sweep_line(name: str, method: str, metric: str, grid) -> str:
    feeder, loads = inputs(name)
    try:
        report = harness.cmd_sweep_switches(feeder, loads, ObjectiveSpec(metric), grid,
                                            method=method, seed=GA_SEED)
    except PhasebalError as exc:
        return f"sweep {name} {method} {metric} raised {type(exc).__name__}: {exc}"
    return f"sweep {name} {method} {metric} {json.dumps(report.__dict__, sort_keys=True)}"


def main():
    for name in ("line", "twenty_user"):
        for method, metric, line_budget, twenty_budget in OPTIMIZE_CASES:
            budget = line_budget if name == "line" else twenty_budget
            print(optimize_line(name, method, metric, budget), flush=True)
    for case in SWEEP_CASES:
        print(sweep_line(*case), flush=True)


if __name__ == "__main__":
    main()
