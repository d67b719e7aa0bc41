#!/usr/bin/env python3
"""Print every branch-and-bound result on the benchmark's planning days.

Rebuilds the planning days of the ``miqp_plan`` benchmark workload (the
``twenty_user`` feeder, 16 one-day profiles at two-hour resolution per
seed) through ``phasebal.fixtures``, solves each with the options
``cmd_optimize`` uses and prints one line per (seed, day, objective): the
assignment, the objective and bound as exact hex floats, the nodes, the
relaxations (``solve_lp`` calls), the status, the simplex pivots of every
``solve_lp`` call the search made and, last, the Frank-Wolfe oracle
vertices taken in closed form.  Run it on two checkouts and ``diff`` the
outputs to show that a change leaves every search result bitwise alone;
fields 1-7 hold the plan, objective, bound and nodes, and must match:

    PYTHONPATH=src python3 scripts/compare_bnb.py --seeds 7,3,23 > after.txt
    diff <(cut -d' ' -f1-7 before.txt) <(cut -d' ' -f1-7 after.txt)

``--fixture twenty_user`` plans that fixture's own profiles instead.
"""

import argparse

import numpy as np

from phasebal import fixtures, miqp
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig

DAYS = 16
DAY_STEPS = 12  # two-hour resolution
DAY_STREAM = 3  # the seed stream the benchmark draws its days from
LEAF_ENUM_CAP = 16384  # the leaf size ``cmd_optimize`` enumerates


def planning_days(seed: int):
    """The benchmark's planning days for ``seed``, in order."""
    profiles = fixtures.twenty_user_profiles(horizon=24)
    nominal = {uid: float(profiles.p[:, profiles.column(uid)].mean())
               for uid in profiles.user_ids}
    for i in range(DAYS):
        day_seed = int(np.random.SeedSequence([seed, DAY_STREAM, i]).generate_state(1)[0])
        yield fixtures.synthetic_profiles(nominal, DAY_STEPS, day_seed,
                                          steps_per_day=DAY_STEPS,
                                          resolution_s=86400 / DAY_STEPS)


def result_line(label: str, feeder, loads, metric: str, delta_max: int) -> str:
    prog = miqp.build_program(feeder, loads, ConstraintConfig(delta_max=delta_max),
                              ObjectiveSpec(metric))
    solve_lp, pivots = miqp.solve_lp, []

    def counting_solve_lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        pivots.append(res.iterations)
        return res

    miqp.solve_lp = counting_solve_lp  # the name the search calls
    try:
        res = miqp.branch_and_bound(prog, miqp.BnBOptions(leaf_enum_cap=LEAF_ENUM_CAP))
    finally:
        miqp.solve_lp = solve_lp
    phases = "".join(map(str, res.assignment.phases))
    return (f"{label} {metric} {phases} {res.objective.hex()} {res.bound.hex()} "
            f"nodes={res.nodes} relaxations={res.relaxations_solved} {res.status} "
            f"pivots={sum(pivots)} closed_form={res.closed_form_vertices}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="7", help="comma-separated day seeds")
    parser.add_argument("--objectives", default="pvur_star,pu_star")
    parser.add_argument("--delta-max", type=int, default=4)
    parser.add_argument("--fixture", help="plan this fixture's profiles instead")
    args = parser.parse_args()

    objectives = args.objectives.split(",")
    feeder = fixtures.twenty_user_feeder()
    if args.fixture:
        feeder, loads = fixtures.fixture(args.fixture)
        cases = [(args.fixture, loads)]
    else:
        cases = ((f"seed={seed} day={i}", loads)
                 for seed in map(int, args.seeds.split(","))
                 for i, loads in enumerate(planning_days(seed)))
    for label, loads in cases:
        for metric in objectives:
            print(result_line(label, feeder, loads, metric, args.delta_max), flush=True)


if __name__ == "__main__":
    main()
