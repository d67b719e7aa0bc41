#!/usr/bin/env python3
"""Print every exact power-flow result as a short digest.

Solves each case with ``powerflow.solve_series`` and prints one line per
(case, assignment): the step count, the total iterations, the converged
and collapsed counts, a ``state_sha256`` over the seven state fields
(every ``PFSeries`` field but ``max_mismatch``) and a ``sha256`` over all
eight (each array's dtype, shape and bytes).  The assignments are the
original one and five seeded random ones.  Each case also prints a sha256
of the ``phasebal pf`` JSON report (``harness.cmd_pf``) over its horizon.  On
``twenty_user`` it also prints one GA run (its trace as ``float.hex``) and
one ``cmd_validate`` report of the GA's plan.  Each case also prints a
sha256 over its feeder's derived tables: the branch keys in order, the
``SweepTables``, every field ``PFTables`` keeps (``y_branch``,
``from_bus``, ``other``, ``z_nn_t``, ``u_ref``, ``load_at``, ``limits``)
and each branch's sorted downstream users.  A last line hashes the same tables over 200 seeded
random radial feeders, given their buses and branches shuffled, some
branches drawn toward a random reference.  Run it on two checkouts and
``diff`` the outputs to show that a change leaves every power-flow field
and every feeder table bitwise alone:

    PYTHONPATH=src python3 scripts/compare_pf.py > after.txt

A change that touches only the reported residual ``max_mismatch`` must
keep every ``state_sha256``, count and feeder digest equal; only the
all-field ``sha256`` and the ``pf`` report digest, which prints the
residual, may move.

The default cases are the bundled fixtures.  ``--seeds 7,3`` solves the
``twenty_user`` feeder over a 720-step horizon of each seed's profiles
instead, and validates over that horizon.
"""

import argparse
import hashlib
import json

import numpy as np

from phasebal import fixtures, ga, harness, network, powerflow
from phasebal.metrics import ObjectiveSpec
from phasebal.network import (Branch, ConstraintConfig, Feeder, PhaseAssignment, User,
                              downstream_users, original_assignment)
from phasebal.problem import Problem

FIELDS = ("u", "s_from", "s_to", "current", "converged", "iterations",
          "max_mismatch", "collapsed")
STATE_FIELDS = tuple(name for name in FIELDS if name != "max_mismatch")
RANDOM_ASSIGNMENTS = 5
LONG_HORIZON = 720
RANDOM_TREES = 200
SWEEP_FIELDS = ("to_bus", "children", "downward", "a_t", "b_t")
PF_TABLE_FIELDS = ("y_branch", "from_bus", "other", "z_nn_t", "u_ref", "load_at", "limits")
# ``Feeder`` orients the branches it is given; older checkouts did it in ``make_feeder``
build_feeder = getattr(network, "make_feeder", Feeder)


def assignments(feeder, seed: int = 0):
    rng = np.random.default_rng(seed)
    n_genes = len(feeder.reconfigurable_users())
    return [original_assignment(feeder)] + [
        PhaseAssignment(rng.integers(1, 4, size=n_genes))
        for _ in range(RANDOM_ASSIGNMENTS)]


def fields_digest(sols, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        arr = getattr(sols, name)
        digest.update(f"{name} {arr.dtype} {arr.shape}\n".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def series_line(label: str, feeder, loads, a: PhaseAssignment) -> str:
    sols = powerflow.solve_series(feeder, a, loads)
    phases = "".join(map(str, a.phases))
    return (f"{label} {phases} steps={len(sols)} iterations={int(sols.iterations.sum())} "
            f"converged={int(sols.converged.sum())} collapsed={int(sols.collapsed.sum())} "
            f"state_sha256={fields_digest(sols, STATE_FIELDS)} "
            f"sha256={fields_digest(sols, FIELDS)}")


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


def feeder_digest(feeder) -> str:
    digest = hashlib.sha256(repr([br.key for br in feeder.branches]).encode())
    tables = [(name, getattr(feeder.sweep_tables(), name)) for name in SWEEP_FIELDS]
    tables += [(name, getattr(feeder.pf_tables, name)) for name in PF_TABLE_FIELDS]
    for name, value in tables:
        if isinstance(value, tuple):
            digest.update(f"{name} {value!r}\n".encode())
        else:
            digest.update(f"{name} {value.dtype} {value.shape}\n".encode())
            digest.update(value.tobytes())
    for br in feeder.branches:
        digest.update(f"{br.key} {sorted(downstream_users(feeder, br))}\n".encode())
    return digest.hexdigest()


def _impedance(rng):
    m = rng.uniform(0.0, 0.04, (3, 3))
    m = (m + m.T) / 2
    np.fill_diagonal(m, rng.uniform(0.05, 0.3, 3))
    return m


def random_feeder(rng):
    """A radial feeder of 2-12 buses with its buses and branches shuffled,
    about half the branches drawn toward a randomly chosen reference."""
    n_bus = int(rng.integers(2, 13))
    buses = [f"b{k}" for k in range(n_bus)]
    branches = []
    for k in range(1, n_bus):
        ends = [buses[int(rng.integers(0, k))], buses[k]]
        if rng.random() < 0.5:
            ends.reverse()
        branches.append(Branch(*ends, _impedance(rng), _impedance(rng)))
    users = [User(f"u{m}", buses[int(rng.integers(n_bus))], int(rng.integers(1, 4)),
                  reconfigurable=bool(rng.random() < 0.8))
             for m in range(int(rng.integers(1, 8)))]
    return build_feeder([buses[k] for k in rng.permutation(n_bus)],
                        [branches[k] for k in rng.permutation(n_bus - 1)],
                        buses[int(rng.integers(n_bus))], users, 230.0, 10000.0)


def random_trees_line() -> str:
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    n_branches = 0
    for _ in range(RANDOM_TREES):
        feeder = random_feeder(rng)
        n_branches += len(feeder.branches)
        digest.update(feeder_digest(feeder).encode())
    return f"random_trees n={RANDOM_TREES} branches={n_branches} sha256={digest.hexdigest()}"


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
        print(f"{label} feeder sha256={feeder_digest(feeder)}", flush=True)
        for a in assignments(feeder):
            print(series_line(label, feeder, loads, a), flush=True)
        print(pf_report_line(label, feeder, loads), flush=True)
        if ga_inputs is not None:
            for line in ga_lines(label, feeder, *ga_inputs):
                print(line, flush=True)
    print(random_trees_line(), flush=True)


if __name__ == "__main__":
    main()
