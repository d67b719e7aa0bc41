#!/usr/bin/env python3
"""Print every linear-model binary program as a short digest.

Builds the branch-and-bound program with ``miqp.build_program`` and prints
one line per (fixture or seed, objective, budget, constraint variant): the
number of screened side rows, the objective of a program without binaries
(0.0 for one with binaries) as an exact hex float and a sha256 over the program: its user order, budget and phase-count
fields, then every array (``const`` and ``coef`` under their per-objective
names ``dev_*`` for pvur_star or ``diff_*`` for pu_star, the other pair
hashed as absent, then ``branch_weight``), then one side row at a time:
its entry of ``side_labels`` and ``side_rhs``, then its (n, 3) slice of
``side_coef``.  The per-objective names keep digests comparable with
those of programs that stored the two pairs as separate fields.  Run it on two checkouts and ``diff`` the outputs to show
that a change leaves every program bitwise alone:

    PYTHONPATH=src python3 scripts/compare_programs.py > after.txt

The variants are the default voltage band, a tight band that keeps more
side rows, and the default band with per-phase user counts enforced.
``--seeds 7,3`` builds the ``twenty_user`` programs under the hourly
planning profiles of those seeds (the ``ld3f_oracle`` benchmark inputs)
instead of the bundled fixtures.
"""

import argparse
import hashlib

from phasebal import fixtures, miqp
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig, PhaseAssignment

FIELDS = ("users", "c0", "objective_kind", "horizon", "delta_max", "gamma",
          "fixed_phase_counts")


def arrays(prog):
    """(name, array or None) of every array in hashing order."""
    live = "dev" if prog.objective_kind == "pvur_star" else "diff"
    for prefix in ("dev", "diff"):
        yield f"{prefix}_const", prog.const if prefix == live else None
        yield f"{prefix}_coef", prog.coef if prefix == live else None
    yield "branch_weight", prog.branch_weight


def baseline(prog) -> float:
    """The objective of a program without binaries, else 0.0."""
    return prog.objective_at(PhaseAssignment(())) if prog.n_users == 0 else 0.0


def variants(feeder, delta_max: int):
    """(name, ConstraintConfig) of every constraint variant at ``delta_max``."""
    yield "band=0.90-1.10", ConstraintConfig(delta_max=delta_max)
    yield "band=0.97-1.03", ConstraintConfig(delta_max=delta_max, v_min=0.97, v_max=1.03)
    cons = ConstraintConfig.from_fractions(feeder, delta_max, enforce_phase_counts=True)
    yield f"gamma={cons.gamma_low}-{cons.gamma_upp}", cons


def program_line(label: str, feeder, loads, metric: str, delta_max: int,
                 variant: str, constraints) -> str:
    prog = miqp.build_program(feeder, loads, constraints, ObjectiveSpec(metric))
    digest = hashlib.sha256()
    for name in FIELDS:
        digest.update(f"{name} {getattr(prog, name)!r}\n".encode())
    for name, arr in arrays(prog):
        shape = None if arr is None else arr.shape
        digest.update(f"{name} {shape}\n".encode())
        if arr is not None:
            digest.update(arr.tobytes())
    for row_label, coef, rhs in zip(prog.side_labels, prog.side_coef, prog.side_rhs):
        digest.update(f"{row_label} {float(rhs).hex()}\n".encode())
        digest.update(coef.tobytes())
    return (f"{label} {metric} budget={delta_max} {variant} rows={len(prog.side_labels)} "
            f"baseline={baseline(prog).hex()} sha256={digest.hexdigest()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fixtures", default=",".join(fixtures.FIXTURE_NAMES))
    parser.add_argument("--seeds", help="comma-separated profile seeds for twenty_user")
    parser.add_argument("--objectives", default="pvur_star,pu_star")
    parser.add_argument("--budgets", default="2,3", help="comma-separated switch budgets")
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
                for variant, cons in variants(feeder, budget):
                    print(program_line(label, feeder, loads, metric, budget, variant, cons),
                          flush=True)


if __name__ == "__main__":
    main()
