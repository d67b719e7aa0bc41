#!/usr/bin/env python3
"""Print every exhaustive ranking as a short digest.

Enumerates every configuration within the switch budget with
``oracle.enumerate_optimal(evaluator="ld3f")`` (or ``--evaluator exact``,
the exact power flow) and prints one line per
(fixture or seed, objective, budget): the number evaluated, the best
phases, the optimum as an exact hex float and a sha256 over the whole
ranking (each objective's ``float.hex()`` and its phases, in rank order).
Run it on two checkouts and ``diff`` the outputs to show that a change
leaves every ranking bitwise alone, ties in the same order:

    PYTHONPATH=src python3 scripts/compare_oracle.py --budgets 2,3 > after.txt
    PYTHONPATH=src python3 scripts/compare_oracle.py --evaluator exact > after_exact.txt

A checkout whose copy of this script has no ``--evaluator`` is compared
by running this copy against its ``src/``.

``--seeds 7,3`` ranks the ``twenty_user`` feeder under the hourly
planning profiles of those seeds (the ``ld3f_oracle`` benchmark inputs)
instead of the bundled fixtures.

The default objectives are the four metrics the linear model can score
(``pvur``, ``pu``, ``pvur_star``, ``pu_star``; ``iu`` needs currents).  A
change to the metric path (``metrics``, ``problem.metric_values_ld3f``,
``ObjectiveSpec.sites``) must keep all four rankings bitwise.  The exact
evaluator also scores ``iu``; add it with ``--objectives``.  A checkout
whose default lists fewer objectives is compared with
``--objectives pvur,pu,pvur_star,pu_star``.
"""

import argparse
import hashlib

from phasebal import fixtures, oracle
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig
from phasebal.problem import Problem


def ranking_line(label: str, feeder, loads, metric: str, delta_max: int,
                 evaluator: str = "ld3f") -> str:
    res = oracle.enumerate_optimal(
        Problem(feeder, loads, ConstraintConfig(delta_max=delta_max), ObjectiveSpec(metric)),
        evaluator=evaluator)
    digest = hashlib.sha256()
    for obj, a in res.ranking:
        digest.update(f"{obj.hex()} {''.join(map(str, a.phases))}\n".encode())
    phases = "".join(map(str, res.best.phases))
    return (f"{label} {metric} budget={delta_max} evaluated={res.evaluated} {phases} "
            f"{res.objective.hex()} sha256={digest.hexdigest()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fixtures", default="line,twenty_user")
    parser.add_argument("--seeds", help="comma-separated profile seeds for twenty_user")
    parser.add_argument("--objectives", default="pvur,pu,pvur_star,pu_star")
    parser.add_argument("--budgets", default="2,3", help="comma-separated switch budgets")
    parser.add_argument("--evaluator", choices=("ld3f", "exact"), default="ld3f")
    args = parser.parse_args()

    if args.seeds:
        feeder = fixtures.twenty_user_feeder()
        cases = [(f"seed={seed}", feeder, fixtures.twenty_user_profiles(seed=seed))
                 for seed in map(int, args.seeds.split(","))]
    else:
        cases = [(name, *fixtures.fixture(name)) for name in args.fixtures.split(",")]
    for label, feeder, loads in cases:
        for metric in args.objectives.split(","):
            for budget in map(int, args.budgets.split(",")):
                print(ranking_line(label, feeder, loads, metric, budget, args.evaluator),
                      flush=True)


if __name__ == "__main__":
    main()
