import dataclasses
import json
import re

import numpy as np
import pytest

from phasebal import cli, fixtures, harness, oracle
from phasebal.errors import MetricError, ValidationError
from phasebal.ga import GAConfig, run_ga
from phasebal.metrics import ALL_METRICS, ObjectiveSpec
from phasebal.network import (Branch, ConstraintConfig, Feeder, LoadSeries, PhaseAssignment,
                              User, original_assignment)
from phasebal.problem import Problem, evaluate_exact

Z_R = [[0.1, 0.03, 0.03], [0.03, 0.1, 0.03], [0.03, 0.03, 0.1]]
Z_X = [[0.06, 0.02, 0.02], [0.02, 0.06, 0.02], [0.02, 0.02, 0.06]]


# -- cmd_optimize ---------------------------------------------------------------


def test_oracle_report_matches_enumeration(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    report = harness.cmd_optimize(feeder, loads, "oracle", ObjectiveSpec("pu"),
                                  cons)
    prob = Problem(feeder, loads, cons, ObjectiveSpec("pu"))
    direct = oracle.enumerate_optimal(prob, evaluator="exact")
    assert np.isclose(report.objective_value, direct.objective)
    assert report.binary_feasible
    assert report.schema_version == harness.SCHEMA_VERSION


def test_oracle_report_flags_a_plan_that_breaks_limits(line, twenty_user):
    """The exact oracle ranks by objective alone; its report says whether
    the plan keeps the operational limits.  On twenty_user's first 12 steps
    every configuration within budget 2 breaks the 0.97-1.03 band."""
    feeder, loads = twenty_user
    loads = LoadSeries(loads.user_ids, loads.p[:12], loads.q[:12], loads.resolution_s)
    report = harness.cmd_optimize(feeder, loads, "oracle", ObjectiveSpec("pu"),
                                  ConstraintConfig(delta_max=2, v_min=0.97, v_max=1.03))
    assert report.solver["feasible"] is False
    report = harness.cmd_optimize(*line, "oracle", ObjectiveSpec("pu"),
                                  ConstraintConfig(delta_max=3))
    assert report.solver["feasible"] is True


@pytest.mark.parametrize("method, metric", [("miqp", "pvur_star"), ("miqp", "pu_star"),
                                            ("ga", "pvur"), ("oracle", "pvur")])
def test_optimize_beside_an_unloaded_cable(unloaded_cable, method, metric):
    feeder, loads = unloaded_cable
    report = harness.cmd_optimize(
        feeder, loads, method, ObjectiveSpec(metric), ConstraintConfig(delta_max=2),
        ga_config=GAConfig(population_size=8, max_fitness_calls=40, rng_seed=1))
    assert np.isfinite(report.objective_value)
    for table in (report.metrics_original, report.metrics_solution):
        assert set(table) == {*ALL_METRICS, "loss_percent"}
        assert all(np.isfinite(v) for v in table.values())


def test_trace_csv_has_one_row_per_generation(line, tmp_path):
    feeder, loads = line
    path = tmp_path / "trace.csv"
    report = harness.cmd_optimize(
        feeder, loads, "ga", ObjectiveSpec("pu"), ConstraintConfig(delta_max=3),
        ga_config=GAConfig(population_size=10, max_fitness_calls=100, rng_seed=5),
        trace_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best,median,worst"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(report.solver["generations"]))
    best = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best[-1] == report.objective_value


def _redact_timing(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": 0', text)


def test_ga_report_deterministic(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    cfg = GAConfig(population_size=10, max_fitness_calls=100, rng_seed=5)
    reports = [harness.cmd_optimize(feeder, loads, "ga", ObjectiveSpec("pu"),
                                    cons, seed=5, ga_config=cfg).to_json()
               for _ in range(2)]
    assert _redact_timing(reports[0]) == _redact_timing(reports[1])


def test_ga_report_names_the_config_that_ran(line):
    feeder, loads = line
    cfg = GAConfig(population_size=10, max_fitness_calls=40, rng_seed=5, threads=2)
    report = harness.cmd_optimize(feeder, loads, "ga", ObjectiveSpec("pu"),
                                  ConstraintConfig(delta_max=3), ga_config=cfg)
    assert (report.seed, report.threads) == (5, 2)


def test_miqp_report_improves_both_spaces(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    report = harness.cmd_optimize(feeder, loads, "miqp",
                                  ObjectiveSpec("pvur_star"), cons)
    assert report.objective_value < report.metrics_original["pvur_star"]
    assert (report.metrics_solution["pvur"]
            < report.metrics_original["pvur"])


def test_report_tables_recomputed_from_assignment(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    report = harness.cmd_optimize(feeder, loads, "miqp",
                                  ObjectiveSpec("pu_star"), cons)
    assignment = harness.assignment_from_payload(feeder, report.assignment)
    table = harness.metric_table(feeder, loads, assignment)
    assert table == report.metrics_solution


def test_unknown_method_rejected(line):
    feeder, loads = line
    from phasebal.errors import ValidationError
    with pytest.raises(ValidationError, match="unknown method"):
        harness.cmd_optimize(feeder, loads, "anneal", ObjectiveSpec("pu"),
                             ConstraintConfig(delta_max=1))


# -- cmd_validate ----------------------------------------------------------------


def test_validate_training_window_mean_matches_objective(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    report = harness.cmd_optimize(feeder, loads, "oracle", ObjectiveSpec("pu"),
                                  cons)
    assignment = harness.assignment_from_payload(feeder, report.assignment)
    val = harness.cmd_validate(feeder, assignment, loads, metric_names=("pu",))
    assert np.isclose(val["metrics"]["pu"]["solution"]["mean"],
                      report.objective_value)


def test_validate_balanced_loads_degenerate_zero(two_bus):
    feeder, _ = two_bus
    ids = tuple(u.id for u in feeder.users)
    p = np.full((6, 3), 1000.0)
    loads = LoadSeries(ids, p, np.zeros_like(p))
    balanced = PhaseAssignment((1, 2, 3))
    val = harness.cmd_validate(feeder, balanced, loads, metric_names=("pvur",))
    dist = val["metrics"]["pvur"]["solution"]
    assert dist["max"] < 1e-9
    assert dist["min"] >= 0.0


def test_validate_series_is_undefined_where_the_objective_is(tmp_path):
    # two loaded reference branches; u3, alone behind ("r", "b"), draws
    # nothing at step 2, so P_U is undefined there on that branch
    feeder = Feeder(
        buses=["r", "a", "b"],
        branches=[Branch("r", "a", Z_R, Z_X), Branch("r", "b", Z_R, Z_X)],
        reference_bus="r",
        users=[User("u1", "a", 1), User("u2", "a", 2), User("u3", "b", 1)],
        base_voltage=230.0, base_power=10_000.0)
    p = np.array([[2000.0, 1000.0, 1500.0]] * 5)
    p[:, 0] += np.arange(5) * 100.0
    p[2, 2] = 0.0
    loads = LoadSeries(("u1", "u2", "u3"), p, 0.3 * p)
    a0 = original_assignment(feeder)
    problem = Problem(feeder, loads, ConstraintConfig(delta_max=1), ObjectiveSpec("pu"))
    with pytest.warns(UserWarning, match="skipping 1 of 5"):
        objective = evaluate_exact(problem, a0).objective
    path = tmp_path / "val.csv"
    val = harness.cmd_validate(feeder, a0, loads, metric_names=("pu",), csv_path=path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    series = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.isnan(series[2]).all()
    assert np.isfinite(np.delete(series, 2, axis=0)).all()
    for tag in ("original", "solution"):
        assert val["metrics"]["pu"][tag]["mean"] == objective


def test_validate_unseen_days_median_improves(line):
    feeder, loads = line
    cons = ConstraintConfig(delta_max=3)
    report = harness.cmd_optimize(feeder, loads, "oracle", ObjectiveSpec("pu"),
                                  cons)
    assignment = harness.assignment_from_payload(feeder, report.assignment)
    unseen = fixtures.line_profiles(horizon=8 * 24, seed=12345)
    val = harness.cmd_validate(feeder, assignment, unseen)
    assert (val["metrics"]["pu"]["solution"]["median"]
            < val["metrics"]["pu"]["original"]["median"])


def test_validate_csv_emitted(tmp_path, line):
    feeder, loads = line
    a0 = original_assignment(feeder)
    path = tmp_path / "val.csv"
    harness.cmd_validate(feeder, a0, loads, csv_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,pvur_original,pvur_solution,pu_original,pu_solution"
    assert len(lines) == 1 + loads.horizon


# -- cmd_sweep_switches ------------------------------------------------------------


@pytest.fixture(scope="module")
def line_sweep(line):
    feeder, loads = line
    return harness.cmd_sweep_switches(feeder, loads, ObjectiveSpec("pu_star"),
                                      grid=(0, 1, 2, 3), time_limit_s=10.0)


def test_sweep_zero_budget_is_baseline(line, line_sweep):
    feeder, loads = line
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=0),
                   ObjectiveSpec("pu_star"))
    from phasebal.problem import evaluate
    i0 = evaluate(prob, original_assignment(feeder), "ld3f")
    assert np.isclose(line_sweep.values[0], i0)


def test_sweep_full_budget_hits_oracle(line, line_sweep):
    feeder, loads = line
    prob = Problem(feeder, loads, ConstraintConfig(delta_max=3),
                   ObjectiveSpec("pu_star"))
    direct = oracle.enumerate_optimal(prob, evaluator="ld3f")
    assert np.isclose(line_sweep.values[-1], direct.objective, atol=1e-9)


def test_sweep_non_increasing(line_sweep):
    vals = line_sweep.values
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_sweep_ga_never_increases(twenty_user):
    """Δ=8 keeps Δ=6's plan, which fits it and beats Δ=8's own GA run."""
    feeder, loads = twenty_user
    loads = loads.slice_window(0, 12)
    spec = ObjectiveSpec("pu")
    report = harness.cmd_sweep_switches(feeder, loads, spec, grid=(6, 8), method="ga")
    own = run_ga(Problem(feeder, loads, ConstraintConfig(delta_max=8), spec),
                 GAConfig(rng_seed=0))
    assert own.best_fitness > report.values[0]
    assert report.failures == {}
    assert report.values[1] == report.values[0]
    assert report.switches_used == [6, 6]


def test_sweep_csv(tmp_path, line):
    feeder, loads = line
    path = tmp_path / "sweep.csv"
    harness.cmd_sweep_switches(feeder, loads, ObjectiveSpec("pu_star"),
                               grid=(0, 1), time_limit_s=10.0, csv_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta_max,objective,switches_used"
    assert len(lines) == 3


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


def test_sweep_records_package_errors(line, monkeypatch):
    feeder, loads = line
    monkeypatch.setattr(harness.miqp, "build_program", _raise(MetricError("undefined")))
    report = harness.cmd_sweep_switches(feeder, loads, ObjectiveSpec("pu_star"),
                                        grid=(0, 1))
    assert report.values == [None, None]
    assert report.failures == {0: "MetricError: undefined", 1: "MetricError: undefined"}


@pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
def test_sweep_rejects_a_bad_time_limit_before_its_first_budget(line, monkeypatch, limit):
    feeder, loads = line
    monkeypatch.setattr(harness, "_plan", _raise(AssertionError("a budget was planned")))
    with pytest.raises(ValidationError, match="time_limit_s must be positive"):
        harness.cmd_sweep_switches(feeder, loads, ObjectiveSpec("pu_star"), grid=(0, 1),
                                   time_limit_s=limit)


def test_sweep_lets_programming_errors_through(line, monkeypatch):
    feeder, loads = line
    monkeypatch.setattr(harness.miqp, "build_program", _raise(KeyError("bug")))
    with pytest.raises(KeyError, match="bug"):
        harness.cmd_sweep_switches(feeder, loads, ObjectiveSpec("pu_star"),
                                   grid=(0, 1))


def test_sweep_keeps_every_constraint_field(line, monkeypatch):
    """Each budget's program carries the given band and phase counts."""
    feeder, loads = line
    cons = ConstraintConfig(delta_max=0, gamma_low=0, gamma_upp=2, v_min=0.98,
                            v_max=1.03, enforce_phase_counts=True)
    spec = ObjectiveSpec("pu_star")
    build, built = harness.miqp.build_program, []

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(harness.miqp, "build_program", recording_build)
    harness.cmd_sweep_switches(feeder, loads, spec, grid=(1, 2), constraints=cons,
                               time_limit_s=10.0)
    assert [prog.delta_max for prog in built] == [1, 2]
    default = build(feeder, loads, ConstraintConfig(delta_max=1), spec)
    for prog in built:
        assert prog.gamma == (0, 2)
        assert len(prog.side_labels) > len(default.side_labels)
        expected = build(feeder, loads, dataclasses.replace(cons, delta_max=prog.delta_max),
                         spec)
        assert prog.side_labels == expected.side_labels
        assert np.array_equal(prog.side_rhs, expected.side_rhs)


# -- cmd_scaling -------------------------------------------------------------------


def test_scaling_single_cell(line):
    feeder, loads = line
    report = harness.cmd_scaling([("line", feeder, loads)], horizons=[2],
                                 methods=["oracle"], repeats=3)
    assert len(report["rows"]) == 1  # deterministic methods run once
    assert report["rows"][0]["method"] == "oracle"
    assert len(report["reported"]) == 1


def test_scaling_row_schema_and_repeats(line):
    feeder, loads = line
    report = harness.cmd_scaling([("line", feeder, loads)], horizons=[2],
                                 methods=["ga"], repeats=2,
                                 constraints=ConstraintConfig(delta_max=2))
    assert [r["repeat"] for r in report["rows"]] == [0, 1]
    for row in report["rows"]:
        assert set(row) == {"feeder", "horizon", "method", "repeat",
                            "wall_time_s"}
    slowest = report["reported"][0]["wall_time_s"]
    assert slowest == max(r["wall_time_s"] for r in report["rows"])


def test_scaling_csv_has_one_row_per_repeat(line, tmp_path):
    feeder, loads = line
    path = tmp_path / "scale.csv"
    report = harness.cmd_scaling([("line", feeder, loads)], horizons=[2],
                                 methods=["ga", "oracle"], repeats=3,
                                 constraints=ConstraintConfig(delta_max=2), csv_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feeder,horizon,method,repeat,wall_time_s"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[2], int(r[3])) for r in rows] == [("ga", 0), ("ga", 1), ("ga", 2), ("oracle", 0)]
    assert [float(r[4]) for r in rows] == [r["wall_time_s"] for r in report["rows"]]


def test_scaling_time_grows_with_horizon(line):
    feeder, loads = line
    report = harness.cmd_scaling([("line", feeder, loads)], horizons=[1, 24],
                                 methods=["oracle"], repeats=1)
    by_h = {r["horizon"]: r["wall_time_s"] for r in report["rows"]}
    assert by_h[24] > by_h[1]


# -- cmd_pf -------------------------------------------------------------------------


def test_pf_report_shape(line):
    feeder, loads = line
    out = harness.cmd_pf(feeder, loads, t=2)
    entry = out["timesteps"]["2"]
    assert entry["converged"]
    assert set(entry["voltage_magnitude_pu"]) == set(feeder.buses)
    assert entry["loss_percent"] > 0.0


def test_pf_report_entries_equal_single_step_reports(line):
    # each entry of the whole-horizon report must be exactly the entry of
    # that timestep solved on its own
    feeder, loads = line
    steps = harness.cmd_pf(feeder, loads)["timesteps"]
    assert list(steps) == [str(k) for k in range(loads.horizon)]
    for k in range(loads.horizon):
        single = harness.cmd_pf(feeder, loads, t=k)["timesteps"][str(k)]
        assert json.dumps(steps[str(k)]) == json.dumps(single)
