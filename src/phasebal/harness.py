"""Experiment procedures and reports: optimize, validate, sweep, scale.

``_plan`` is the one dispatch over the optimizers (GA, branch-and-bound,
oracle) that optimize, sweep and scale plan through.  A wall time (a
report's ``wall_time_s``, a scaling row) covers that call alone.

Every report recomputes its metric table from the stored assignment via
the exact power flow; nothing is copied through from solver internals.
Reports serialize to JSON (schema_version field, sorted keys) and plot
data goes to plain CSV so rendering stays external.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import ga, metrics, miqp, oracle, powerflow
from .errors import MetricError, PhasebalError, ValidationError
from .metrics import ObjectiveSpec
from .network import (ConstraintConfig, Feeder, LoadSeries, PhaseAssignment,
                      as_phase, binary_feasible, original_assignment, switch_count)
from .problem import Problem, evaluate_exact, metric_values_exact

SCHEMA_VERSION = 1
BNB = miqp.BnBOptions(leaf_enum_cap=16384)  # a command's copy validates its time limit


def metric_table(feeder: Feeder, loads: LoadSeries,
                 assignment: PhaseAssignment) -> dict:
    """All five imbalance metrics plus the loss fraction, from exact PF."""
    sols = powerflow.solve_series(feeder, assignment, loads).check_collapse()
    table = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in map(ObjectiveSpec, metrics.ALL_METRICS):
            table[spec.metric] = metrics.aggregate(
                spec, metric_values_exact(spec, spec.sites(feeder, loads), sols))
    table["loss_percent"] = float(np.mean(powerflow.losses(sols, feeder)))
    return table


def assignment_payload(feeder: Feeder, assignment: PhaseAssignment) -> dict:
    pr = feeder.reconfigurable_users()
    return {u.id: int(ph) for u, ph in zip(pr, assignment.phases)}


def assignment_from_payload(feeder: Feeder, payload: dict) -> PhaseAssignment:
    if not isinstance(payload, dict):
        raise ValidationError(f"assignment payload is a {type(payload).__name__}, not a mapping")
    pr = feeder.reconfigurable_users()
    missing = [u.id for u in pr if u.id not in payload]
    if missing:
        raise ValidationError(f"assignment payload missing users {missing}")
    return PhaseAssignment(tuple(as_phase(payload[u.id], f"assignment of user {u.id}")
                                 for u in pr))


@dataclass
class RunReport:
    method: str
    objective: str
    seed: int | None
    threads: int
    wall_time_s: float
    fitness_calls: int | None
    pf_evaluations: int | None
    objective_value: float
    solver: dict
    assignment: dict
    switches: int
    binary_feasible: bool
    metrics_original: dict
    metrics_solution: dict
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)


@dataclass(frozen=True)
class _Plan:
    best: PhaseAssignment
    value: float
    solver: dict
    ga_result: ga.GAResult | None = None
    fitness_calls: int | None = None
    pf_evaluations: int | None = None


def _plan(problem: Problem, method: str, ga_config: ga.GAConfig, bnb: miqp.BnBOptions,
          initial: PhaseAssignment | None = None) -> _Plan:
    """Run one optimizer on ``problem``: the one method dispatch.  The
    branch-and-bound starts from ``initial`` when it is feasible."""
    if method == "ga":
        res = ga.run_ga(problem, ga_config)
        return _Plan(res.best, res.best_fitness,
                     {"generations": len(res.trace), "feasible": bool(res.feasible)},
                     res, res.fitness_calls, res.pf_evaluations)
    if method == "miqp":
        prog = miqp.build_program(problem.feeder, problem.loads, problem.constraints,
                                  problem.objective)
        res = miqp.branch_and_bound(prog, replace(bnb, initial_incumbent=initial))
        return _Plan(res.assignment, res.objective,
                     {"bound": res.bound, "gap": res.gap, "nodes": res.nodes,
                      "status": res.status, "relaxations_solved": res.relaxations_solved})
    if method == "oracle":
        res = oracle.enumerate_optimal(problem, evaluator="exact")
        feasible = evaluate_exact(problem, res.best).operational_ok  # the ranking ignores limits
        return _Plan(res.best, res.objective, {"evaluated": res.evaluated, "feasible": feasible},
                     pf_evaluations=res.evaluated)
    raise ValidationError(f"unknown method {method!r}; pick ga, miqp or oracle")


def cmd_optimize(feeder: Feeder, loads: LoadSeries, method: str,
                 objective: ObjectiveSpec, constraints: ConstraintConfig,
                 seed: int = 0, threads: int = 1,
                 ga_config: ga.GAConfig | None = None,
                 time_limit_s: float | None = None,
                 trace_path=None) -> RunReport:
    """Run one optimizer and score the result on every exact metric.  A
    GA report's seed and threads are those of the configuration that ran.
    ``time_limit_s`` bounds only the MIQP search."""
    bnb = replace(BNB, time_limit_s=time_limit_s)  # checked whatever the method
    prob = Problem(feeder, loads, constraints, objective)
    cfg = ga_config or ga.GAConfig(rng_seed=seed, threads=threads)
    started = time.monotonic()
    plan = _plan(prob, method, cfg, bnb)
    wall = time.monotonic() - started
    if trace_path and plan.ga_result:
        write_trace_csv(plan.ga_result, trace_path)
    a0 = original_assignment(feeder)
    return RunReport(
        method=method, objective=objective.metric, wall_time_s=wall,
        seed=cfg.rng_seed if method == "ga" else None,
        threads=cfg.threads if method == "ga" else threads,
        fitness_calls=plan.fitness_calls, pf_evaluations=plan.pf_evaluations,
        objective_value=plan.value, solver=plan.solver,
        assignment=assignment_payload(feeder, plan.best),
        switches=switch_count(plan.best, a0),
        binary_feasible=binary_feasible(feeder, plan.best, constraints),
        metrics_original=metric_table(feeder, loads, a0),
        metrics_solution=metric_table(feeder, loads, plan.best))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(result: ga.GAResult, path) -> None:
    _write_csv(path, ["generation", "best", "median", "worst"],
               ([g] + [repr(v) for v in row] for g, row in enumerate(result.trace)))


# -- validation over unseen loads --------------------------------------------


def _distribution(values: np.ndarray) -> dict:
    """Summary of a per-timestep series over its defined (finite) steps."""
    values = values[np.isfinite(values)]
    if len(values) == 0:
        raise MetricError("metric undefined at every timestep")
    q1, med, q3 = (float(np.percentile(values, p)) for p in (25, 50, 75))
    iqr = q3 - q1
    outliers = values[(values < q1 - 1.5 * iqr) | (values > q3 + 1.5 * iqr)]
    return {"min": float(values.min()), "q1": q1, "median": med, "q3": q3,
            "max": float(values.max()), "mean": float(values.mean()),
            "outliers": [float(v) for v in sorted(outliers)]}


def cmd_validate(feeder: Feeder, assignment: PhaseAssignment,
                 validation_loads: LoadSeries,
                 metric_names=("pvur", "pu"),
                 csv_path=None) -> dict:
    """Per-timestep metric distributions for the original configuration and
    a proposed assignment over a (possibly unseen) horizon: each series is
    the objective's ``metrics.per_timestep``, NaN (``nan`` in the CSV) where
    undefined, and the distributions cover its defined steps."""
    a0 = original_assignment(feeder)
    report = {"schema_version": SCHEMA_VERSION,
              "horizon": validation_loads.horizon, "metrics": {}}
    solved = {tag: powerflow.solve_series(feeder, a, validation_loads).check_collapse()
              for tag, a in (("original", a0), ("solution", assignment))}
    per_t = {}
    for spec in map(ObjectiveSpec, metric_names):
        sites = spec.sites(feeder, validation_loads)
        series = per_t[spec.metric] = {
            tag: metrics.per_timestep(spec, metric_values_exact(spec, sites, s))
            for tag, s in solved.items()}
        report["metrics"][spec.metric] = {tag: _distribution(v) for tag, v in series.items()}
    if csv_path:
        cols = [(n, tag) for n in metric_names for tag in ("original", "solution")]
        _write_csv(csv_path, ["t"] + [f"{n}_{tag}" for n, tag in cols],
                   ([t] + [repr(float(per_t[n][tag][t])) for n, tag in cols]
                    for t in range(validation_loads.horizon)))
    return report


# -- switching budget sweep ---------------------------------------------------


@dataclass
class SweepReport:
    objective: str
    method: str
    grid: list
    values: list
    switches_used: list
    failures: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def cmd_sweep_switches(feeder: Feeder, loads: LoadSeries,
                       objective: ObjectiveSpec, grid,
                       method: str = "miqp", seed: int = 0,
                       constraints: ConstraintConfig | None = None,
                       time_limit_s: float | None = 20.0,
                       csv_path=None) -> SweepReport:
    """One plan per budget, smallest first; a budget that fails is recorded
    in ``failures`` and the sweep goes on.  A plan that fits a budget fits
    every larger one, so each search starts from the best plan so far and a
    budget keeps that plan when its own scores higher: the values never rise
    with the budget.  Only the GA, which is not exact, ever needs the carry.
    """
    bnb = replace(BNB, time_limit_s=time_limit_s)  # a bad limit fails before any budget
    grid = sorted(set(int(g) for g in grid))
    cfg, a0 = ga.GAConfig(rng_seed=seed), original_assignment(feeder)
    values, used, failures, best = [], [], {}, None
    for budget in grid:
        cons = (replace(constraints, delta_max=budget) if constraints
                else ConstraintConfig(delta_max=budget))
        try:
            plan = _plan(Problem(feeder, loads, cons, objective), method, cfg,
                         bnb, initial=None if best is None else best.best)
        except PhasebalError as exc:  # record, keep sweeping
            failures[budget] = f"{type(exc).__name__}: {exc}"
            values.append(None)
            used.append(None)
            continue
        if best is None or plan.value <= best.value:
            best = plan
        values.append(float(best.value))
        used.append(switch_count(best.best, a0))
    report = SweepReport(objective=objective.metric, method=method,
                         grid=grid, values=values, switches_used=used,
                         failures=failures)
    if csv_path:
        _write_csv(csv_path, ["delta_max", "objective", "switches_used"],
                   ([g, "" if v is None else repr(v), "" if s is None else s]
                    for g, v, s in zip(grid, values, used)))
    return report


# -- scaling ------------------------------------------------------------------


def cmd_scaling(feeder_loads: list, horizons, methods, repeats: int = 5,
                objective: ObjectiveSpec | None = None,
                constraints: ConstraintConfig | None = None,
                csv_path=None) -> dict:
    """Wall-time grid over (feeder, horizon, method), timing ``_plan`` alone.

    The GA is repeated with seeds 0, 1, ... and judged by its slowest run;
    deterministic methods run once per cell.  Rows carry every repeat.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be at least 1, got {repeats}")
    objective = objective or ObjectiveSpec("pu_star")
    rows, summary = [], {}
    for label, feeder, loads in feeder_loads:
        cons = constraints or ConstraintConfig.from_fractions(feeder, delta_max=5)
        for horizon in horizons:
            prob = Problem(feeder, loads.slice_window(0, horizon), cons, objective)
            for method in methods:
                times = []
                for rep in range(repeats if method == "ga" else 1):
                    started = time.monotonic()
                    _plan(prob, method, ga.GAConfig(rng_seed=rep), BNB)
                    dt = time.monotonic() - started
                    times.append(dt)
                    rows.append({"feeder": label, "horizon": horizon,
                                 "method": method, "repeat": rep,
                                 "wall_time_s": dt})
                summary[(label, horizon, method)] = max(times)
    report = {"schema_version": SCHEMA_VERSION,
              "objective": objective.metric,
              "rows": rows,
              "reported": [{"feeder": k[0], "horizon": k[1], "method": k[2],
                            "wall_time_s": v} for k, v in summary.items()]}
    if csv_path:
        keys = ("feeder", "horizon", "method", "repeat")
        _write_csv(csv_path, [*keys, "wall_time_s"],
                   ([row[k] for k in keys] + [repr(row["wall_time_s"])] for row in rows))
    return report


# -- one-shot power flow -------------------------------------------------------


def cmd_pf(feeder: Feeder, loads: LoadSeries, t: int | None = None) -> dict:
    """Solve the exact power flow and dump voltages, flows and losses."""
    steps = range(loads.horizon) if t is None else [t]
    window = loads if t is None else loads.slice_window(t, t + 1)
    sols = powerflow.solve_series(feeder, original_assignment(feeder), window).check_collapse()
    out = {"schema_version": SCHEMA_VERSION, "timesteps": {}}
    for step, sol in zip(steps, sols):
        u_mag = np.abs(sol.u)
        entry = {
            "converged": sol.converged,
            "iterations": sol.iterations,
            "max_mismatch_pu": sol.max_mismatch,
            "voltage_magnitude_pu": {bus: [float(v) for v in u_mag[i]]
                                     for i, bus in enumerate(feeder.buses)},
            "loss_percent": powerflow.losses(sol, feeder) if sol.converged else None,
            "flows_pu": {f"{br.from_bus}->{br.to_bus}":
                         {"p": [float(x) for x in np.real(s_from)],
                          "q": [float(x) for x in np.imag(s_from)]}
                         for br, s_from in zip(feeder.branches, sol.s_from)},
        }
        out["timesteps"][str(step)] = entry
    return out
