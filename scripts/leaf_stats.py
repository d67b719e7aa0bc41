#!/usr/bin/env python3
"""Count and time the branch-and-bound leaf work on the benchmark's planning days.

Solves the ``miqp_plan`` planning days of the given seeds
(``compare_bnb.planning_days``) for each objective and prints, summed over
every leaf the searches close:

* ``completions``: rows generated by ``network.completions``;
* ``after_pass1`` and ``after_pass2``: rows left after the first bound pass
  (anchored on each chunk's first row) and after the second (anchored on
  the last survivor);
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

    def count_rows(owner, name, key):
        """Add the length of each result of ``owner.name`` inside a leaf to
        the counter ``key(*args)`` names (none when it gives None)."""
        original = getattr(owner, name)

        def wrapper(*args):
            result = original(*args)
            counter = key(*args) if leaf else None
            if counter is not None:
                leaf[0][counter] += len(result)
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
        count_rows(miqp, "completions", lambda *args: "completions"),
        # the second pass runs on what the first one left
        count_rows(miqp.BinaryProgram, "_leaf_bound",
                   lambda prog, phases, anchor: "after_pass1" if anchor == -1 else None),
        count_rows(miqp.BinaryProgram, "feasible_mask", lambda *args: "after_pass2"),
        count_rows(miqp.BinaryProgram, "objective_batch", lambda *args: "scored"),
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
