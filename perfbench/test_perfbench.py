"""Tests of the benchmark's own machinery: trace consistency and seeds.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import phasebal
from phasebal import fixtures, ga, harness, miqp, oracle, problem, simplex
from phasebal.metrics import ObjectiveSpec
from phasebal.network import ConstraintConfig
from phasebal.problem import Problem

import run
from tracing import Tracer
from workloads import DEFAULT_SEED, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def inputs():
    return make_inputs(DEFAULT_SEED)


def test_ga_exact_evaluations_are_pf_evaluations_plus_final(inputs):
    tracer = Tracer()
    cfg = ga.GAConfig(population_size=10, max_fitness_calls=60, rng_seed=3)
    with tracer.active():
        report = harness.cmd_optimize(inputs.feeder, inputs.loads, "ga",
                                      ObjectiveSpec("pu"), ConstraintConfig(delta_max=5),
                                      ga_config=cfg)
    assert report.pf_evaluations > 1
    assert tracer.spans["problem.evaluate_exact"][0] == report.pf_evaluations + 1
    assert tracer.counts["ga.unique_evals"] == report.pf_evaluations


@pytest.mark.parametrize("metric", ["pvur_star", "pu_star"])
def test_lp_solves_are_relaxations_plus_root_check(inputs, metric):
    prog = miqp.build_program(inputs.feeder, inputs.loads,
                              ConstraintConfig(delta_max=2), ObjectiveSpec(metric))
    tracer = Tracer()
    with tracer.active():
        res = miqp.branch_and_bound(prog, miqp.BnBOptions(leaf_enum_cap=27))
    assert res.relaxations_solved > 0
    assert tracer.spans["simplex.solve_lp"][0] == res.relaxations_solved + 1
    assert tracer.counts["miqp.relaxations"] == res.relaxations_solved
    assert tracer.counts["miqp.nodes"] == res.nodes


def test_oracle_evaluations_equal_configurations(inputs):
    prob = Problem(inputs.feeder, inputs.loads, ConstraintConfig(delta_max=1),
                   ObjectiveSpec("pu_star"))
    tracer = Tracer()
    with tracer.active():
        res = oracle.enumerate_optimal(prob, evaluator="ld3f")
    assert res.evaluated == 1 + 20 * 2
    assert tracer.spans["problem.evaluate"][0] == res.evaluated
    assert tracer.counts["oracle.configs"] == res.evaluated


def test_every_import_site_is_rebound_and_restored():
    originals = {"ga.evaluate_exact": ga.evaluate_exact,
                 "oracle.evaluate": oracle.evaluate,
                 "miqp.solve_lp": miqp.solve_lp,
                 "harness.metric_values_exact": harness.metric_values_exact,
                 "phasebal.evaluate": phasebal.evaluate}
    tracer = Tracer()
    with tracer.active():
        assert tracer.stale_bindings() == []
        assert hasattr(ga.evaluate_exact, "__wrapped__")
        assert hasattr(oracle.evaluate, "__wrapped__")
        assert hasattr(miqp.solve_lp, "__wrapped__")
        assert hasattr(harness.metric_values_exact, "__wrapped__")
        assert hasattr(phasebal.evaluate, "__wrapped__")
        assert hasattr(miqp.BinaryProgram.objective_batch, "__wrapped__")
        assert simplex.solve_lp is miqp.solve_lp
    assert ga.evaluate_exact is originals["ga.evaluate_exact"] is problem.evaluate_exact
    assert oracle.evaluate is originals["oracle.evaluate"]
    assert miqp.solve_lp is originals["miqp.solve_lp"]
    assert harness.metric_values_exact is originals["harness.metric_values_exact"]
    assert phasebal.evaluate is originals["phasebal.evaluate"]
    assert not hasattr(miqp.BinaryProgram.objective_batch, "__wrapped__")


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    samples = [{"traced": traced, "wall_s": 1.0, "cpu_s": 1.0, "scale": 1.0,
                "problems": [], "parts": {"pu_star": 0.5}} for traced in (False, True)]
    metrics = run.per_layer(samples, Tracer())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert set(run.end_to_end(samples, 1.0)) == {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    for name, (_, unit) in metrics.items():
        assert units[name] == unit, name


def _arrays(inp):
    return (inp.loads.p, inp.loads.q, inp.validation_loads.p, inp.validation_loads.q,
            *(loads.p for loads in inp.days))


def test_same_seed_gives_identical_inputs():
    a, b = make_inputs(11), make_inputs(11)
    assert a.ga_seed_base == b.ga_seed_base
    for x, y in zip(_arrays(a), _arrays(b)):
        np.testing.assert_array_equal(x, y)


def test_other_seed_gives_different_inputs():
    a, b = make_inputs(11), make_inputs(12)
    assert a.ga_seed_base != b.ga_seed_base
    for x, y in zip(_arrays(a), _arrays(b)):
        assert x.shape == y.shape and not np.array_equal(x, y)


def test_default_seed_reproduces_the_fixture(inputs):
    _, loads = fixtures.fixture("twenty_user")
    np.testing.assert_array_equal(inputs.loads.p, loads.p)
    np.testing.assert_array_equal(inputs.loads.q, loads.q)
    assert inputs.validation_loads.horizon == 720


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ga_plan",
                          "--seed", "7", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
