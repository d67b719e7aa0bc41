#!/usr/bin/env python3
"""Print every exact power-flow result as a short digest.

Solves each case with ``powerflow.solve_series`` and prints one line per
(case, assignment): the step count, the total iterations, the converged
and collapsed counts and a sha256 over all eight ``PFSeries`` fields
(each array's dtype, shape and bytes).  The assignments are the original
one and five seeded random ones.  Each case also prints a sha256 of the
``phasebal pf`` JSON report (``harness.cmd_pf``) over its horizon.  On
``twenty_user`` it also prints one GA run (its trace as ``float.hex``) and
one ``cmd_validate`` report of the GA's plan.  Run it on two checkouts and
``diff`` the outputs to show that a change leaves every power-flow field
bitwise alone:

    PYTHONPATH=src python3 scripts/compare_pf.py > after.txt

The default cases are the bundled fixtures.  ``--seeds 7,3`` solves the
``twenty_user`` feeder over a 720-step horizon of each seed's profiles
instead, and validates over that horizon.
"""

import argparse
import hashlib
import json

import numpy as np

from phasebal import fixtures, ga, harness, powerflow
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig, PhaseAssignment, original_assignment
from phasebal.problem import Problem

FIELDS = ("u", "s_from", "s_to", "current", "converged", "iterations",
          "max_mismatch", "collapsed")
RANDOM_ASSIGNMENTS = 5
LONG_HORIZON = 720


def assignments(feeder, seed: int = 0):
    rng = np.random.default_rng(seed)
    n_genes = len(feeder.reconfigurable_users())
    return [original_assignment(feeder)] + [
        PhaseAssignment(rng.integers(1, 4, size=n_genes))
        for _ in range(RANDOM_ASSIGNMENTS)]


def series_line(label: str, feeder, loads, a: PhaseAssignment) -> str:
    sols = powerflow.solve_series(feeder, a, loads)
    digest = hashlib.sha256()
    for name in FIELDS:
        arr = getattr(sols, name)
        digest.update(f"{name} {arr.dtype} {arr.shape}\n".encode())
        digest.update(arr.tobytes())
    phases = "".join(map(str, a.phases))
    return (f"{label} {phases} steps={len(sols)} iterations={int(sols.iterations.sum())} "
            f"converged={int(sols.converged.sum())} collapsed={int(sols.collapsed.sum())} "
            f"sha256={digest.hexdigest()}")


def pf_report_line(label: str, feeder, loads) -> str:
    text = json.dumps(harness.cmd_pf(feeder, loads), sort_keys=True, indent=1)
    return (f"{label} pf steps={loads.horizon} "
            f"sha256={hashlib.sha256(text.encode()).hexdigest()}")


def ga_lines(label: str, feeder, loads, long_loads) -> list[str]:
    problem = Problem(feeder, loads, ConstraintConfig(delta_max=5), ObjectiveSpec("pu"))
    res = ga.run_ga(problem, ga.GAConfig(population_size=20, max_fitness_calls=200,
                                         rng_seed=1))
    digest = hashlib.sha256()
    for row in res.trace:
        digest.update((" ".join(v.hex() for v in row) + "\n").encode())
    report = harness.cmd_validate(feeder, res.best, long_loads)
    text = json.dumps(report, sort_keys=True)
    return [f"{label} ga {''.join(map(str, res.best.phases))} "
            f"fitness={res.best_fitness.hex()} calls={res.fitness_calls} "
            f"pf={res.pf_evaluations} trace_sha256={digest.hexdigest()}",
            f"{label} validate horizon={report['horizon']} "
            f"sha256={hashlib.sha256(text.encode()).hexdigest()}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fixtures", default="two_bus,line,twenty_user")
    parser.add_argument("--seeds", help="comma-separated profile seeds for twenty_user")
    args = parser.parse_args()

    if args.seeds:
        feeder = fixtures.twenty_user_feeder()
        cases = []
        for seed in map(int, args.seeds.split(",")):
            long_loads = fixtures.twenty_user_profiles(horizon=LONG_HORIZON, seed=seed)
            cases.append((f"seed={seed}", feeder, long_loads,
                          (fixtures.twenty_user_profiles(seed=seed), long_loads)))
    else:
        cases = []
        for name in args.fixtures.split(","):
            feeder, loads = fixtures.fixture(name)
            ga_inputs = ((loads, fixtures.twenty_user_profiles(horizon=LONG_HORIZON))
                         if name == "twenty_user" else None)
            cases.append((name, feeder, loads, ga_inputs))
    for label, feeder, loads, ga_inputs in cases:
        for a in assignments(feeder):
            print(series_line(label, feeder, loads, a), flush=True)
        print(pf_report_line(label, feeder, loads), flush=True)
        if ga_inputs is not None:
            for line in ga_lines(label, feeder, *ga_inputs):
                print(line, flush=True)


if __name__ == "__main__":
    main()
