#!/usr/bin/env python3
"""Print every GA result on the benchmark's GA planning days.

Rebuilds the days of the ``ga_plan`` benchmark workload (the
``twenty_user`` feeder, 16 one-day profiles at two-hour resolution per
seed, switch budget 5, objective ``pu``, population 100, 1,000 fitness
calls, GA seed = the seed's GA seed base + day) and runs ``ga.run_ga`` on
each at every thread count.  It prints one line per (seed, day, threads):
the best plan, its fitness as an exact hex float, the call counts, the
feasibility flag, ``trace10`` (a sha256 over the trace rounded to 10
significant digits) and a sha256 over every ``GAResult`` field (the trace
as ``float.hex``).  Run it on two checkouts and ``diff`` the outputs to
show that a change leaves every GA result bitwise alone:

    PYTHONPATH=src python3 scripts/compare_ga.py --seeds 7,3 > after.txt

A change that moves only the last bits of the power flow moves
``best_fitness`` and ``sha256``, but must keep every other field equal:
the plan, ``trace10``, ``fitness_calls``, ``pf_evaluations`` and
``feasible``.  Ten digits leave a margin: a change of the power-flow
kernel moved trace values by up to 2e-13 (relative), and at 12 digits 5
of 1,440 of those values crossed a rounding boundary.
"""

import argparse
import hashlib

import numpy as np

from compare_bnb import planning_days
from phasebal import fixtures, ga
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig
from phasebal.problem import Problem

BUDGET = 5
POPULATION = 100
FITNESS_CALLS = 1000
GA_STREAM = 1  # the seed stream the benchmark draws its GA seed base from


def ga_seed_base(seed: int) -> int:
    return int(np.random.SeedSequence([seed, GA_STREAM]).generate_state(1)[0]) % 1_000_000


def result_line(label: str, res: ga.GAResult) -> str:
    fields = (
        f"best={''.join(map(str, res.best.phases))}",
        f"best_fitness={float(res.best_fitness).hex()}",
        "trace=" + ";".join(",".join(float(v).hex() for v in row) for row in res.trace),
        f"fitness_calls={res.fitness_calls}",
        f"pf_evaluations={res.pf_evaluations}",
        f"feasible={res.feasible}",
    )
    digest = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    rounded = ";".join(",".join(f"{float(v):.9e}" for v in row) for row in res.trace)
    trace10 = hashlib.sha256(rounded.encode()).hexdigest()
    return (f"{label} {' '.join(fields[:2])} {' '.join(fields[3:])} "
            f"trace10={trace10} sha256={digest}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,3", help="comma-separated workload seeds")
    parser.add_argument("--threads", default="1,2", help="comma-separated thread counts")
    args = parser.parse_args()
    feeder = fixtures.twenty_user_feeder()
    for seed in (int(s) for s in args.seeds.split(",")):
        base = ga_seed_base(seed)
        for i, loads in enumerate(planning_days(seed)):
            problem = Problem(feeder, loads, ConstraintConfig(delta_max=BUDGET),
                              ObjectiveSpec("pu"))
            for threads in (int(t) for t in args.threads.split(",")):
                res = ga.run_ga(problem, ga.GAConfig(
                    population_size=POPULATION, max_fitness_calls=FITNESS_CALLS,
                    rng_seed=base + i, threads=threads))
                print(result_line(f"seed={seed} day={i} threads={threads}", res), flush=True)


if __name__ == "__main__":
    main()
