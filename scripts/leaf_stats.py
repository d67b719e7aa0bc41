#!/usr/bin/env python3
"""Count and time the branch-and-bound leaf work on the benchmark's planning days.

Solves the ``miqp_plan`` planning days of the given seeds
(``compare_bnb.planning_days``) for each objective and prints, summed over
every leaf the searches close:

* ``completions``: rows generated by ``network.completions``, which also
  carries their first-pass bound sums;
* ``after_pass1`` and ``after_pass2``: rows left after the first bound pass
  (anchored on each leaf's zero-switch completion) and after the second
  (anchored on each chunk's last survivor);
* ``scored``: rows that also meet the counts and side rows, and so are
  scored in full by ``objective_batch``;
* ``leaf_s``: wall time inside ``_enumerate_leaf``, including the small
  cost of the wrappers that count the rows.

The numbers come from wrapping solver methods from outside the package, so
the program itself carries no counter for them:

    PYTHONPATH=src python3 scripts/leaf_stats.py --seeds 7
"""

import argparse
import time
from collections import Counter
from unittest import mock

from compare_bnb import planning_days, result_line
from phasebal import fixtures, miqp


def leaf_stats(seeds, objectives, delta_max):
    """{objective: Counter} of the leaf counts and times described above."""
    stats = {metric: Counter() for metric in objectives}
    leaf = []  # the Counter of the leaf being enumerated, if any

    def count_rows(owner, name, key, rows=lambda result, *args: result):
        """Add the length of ``rows(result, *args)`` for each call of
        ``owner.name`` inside a leaf to the counter ``key``."""
        original = getattr(owner, name)

        def wrapper(*args):
            result = original(*args)
            if leaf:
                leaf[0][key] += len(rows(result, *args))
            return result
        return mock.patch.object(owner, name, wrapper)

    original_leaf = miqp._BnBSolver._enumerate_leaf

    def timed_leaf(solver, *args):
        leaf.append(stats[solver.prog.objective_kind])
        started = time.perf_counter()
        try:
            return original_leaf(solver, *args)
        finally:
            leaf[0]["leaf_s"] += time.perf_counter() - started
            leaf[0]["leaves"] += 1
            leaf.clear()

    patches = [
        mock.patch.object(miqp._BnBSolver, "_enumerate_leaf", timed_leaf),
        # a leaf's call returns (rows, first-pass sums)
        count_rows(miqp, "completions", "completions", lambda result, *args: result[0]),
        # the second pass runs on what the first one left
        count_rows(miqp.BinaryProgram, "_leaf_bound", "after_pass1",
                   lambda result, prog, phases, anchor: phases),
        count_rows(miqp.BinaryProgram, "feasible_mask", "after_pass2"),
        count_rows(miqp.BinaryProgram, "objective_batch", "scored"),
    ]
    feeder = fixtures.twenty_user_feeder()
    for patch in patches:
        patch.start()
    try:
        for seed in seeds:
            for loads in planning_days(seed):
                for metric in objectives:
                    result_line("", feeder, loads, metric, delta_max)
    finally:
        for patch in reversed(patches):
            patch.stop()
    return stats


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="7", help="comma-separated day seeds")
    parser.add_argument("--objectives", default="pvur_star,pu_star")
    parser.add_argument("--delta-max", type=int, default=4)
    args = parser.parse_args()

    stats = leaf_stats(list(map(int, args.seeds.split(","))),
                       args.objectives.split(","), args.delta_max)
    columns = ("leaves", "completions", "after_pass1", "after_pass2", "scored")
    print(f"{'objective':10s}" + "".join(f"{c:>13s}" for c in columns) + f"{'leaf_s':>9s}")
    for metric, c in stats.items():
        print(f"{metric:10s}" + "".join(f"{c[k]:13d}" for k in columns)
              + f"{c['leaf_s']:9.3f}")


if __name__ == "__main__":
    main()
