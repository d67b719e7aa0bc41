"""Problem bundle and objective evaluation pipelines.

A Problem ties a feeder, a demand horizon, the planning constraints and
the objective together.  Two evaluators are available: the exact
fixed-point power flow and the lossless linear model.  Both feed the same
metric aggregation, so a configuration can be scored consistently by
either route.

Both routes hand over whole (T, location, phase) arrays in one layout,
buses in ``feeder.buses`` and branches in ``feeder.branches`` order: a
block-solved ``powerflow.PFSeries`` or an ``Ld3fState``, one per assignment
of a batch from ``batch_states``' one solve or sweep.  The operational
checks and the metric values read them in one vectorized pass through the
formulas of ``metrics``; only violation messages are built per timestep.
The objective is resolved once per Problem: ``Problem.sites`` is cached on
first use, so scoring a configuration is array work alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import lindist, metrics, powerflow
from .errors import ConvergenceError, MetricError, ValidationError
from .metrics import ObjectiveSpec
from .network import ConstraintConfig, Feeder, LoadSeries, PhaseAssignment

EVALUATORS = ("exact", "ld3f")


@dataclass(frozen=True, eq=False)
class Problem:
    feeder: Feeder
    loads: LoadSeries
    constraints: ConstraintConfig
    objective: ObjectiveSpec

    @functools.cached_property
    def sites(self) -> metrics.Sites:
        return self.objective.sites(self.feeder, self.loads)


def _flow_values(spec: ObjectiveSpec, sites: metrics.Sites, flows: np.ndarray) -> np.ndarray:
    """(n_branches, T) values from (T, n_branches, 3) flows; NaN if undefined."""
    return (metrics.p_u_star_values(flows, sites.denom) if spec.metric == "pu_star"
            else metrics.unbalance_rate_values(flows)).T


def metric_values_exact(spec: ObjectiveSpec, sites: metrics.Sites,
                        solutions: powerflow.PFSeries) -> np.ndarray:
    """Per-location, per-timestep values of ``spec.metric`` from exact PF."""
    if spec.is_voltage_metric:
        mags = np.abs(solutions.u[:, sites.index])
        return (metrics.pvur_values(mags) if spec.metric == "pvur"
                else metrics.pvur_star_values(mags ** 2)).T
    return _flow_values(spec, sites, (
        np.abs(solutions.current[:, sites.index]) if spec.metric == "iu"
        else np.real(solutions.s_from[:, sites.index])))


def metric_values_ld3f(spec: ObjectiveSpec, sites: metrics.Sites,
                       state: lindist.Ld3fState) -> np.ndarray:
    if spec.metric == "iu":
        raise ValidationError("the linear model carries no currents; "
                              "i_u needs the exact evaluator")
    if spec.is_voltage_metric:
        w = state.omega[:, sites.index]
        if spec.metric == "pvur_star":
            return metrics.pvur_star_values(w).T
        bad = np.any(w <= 0.0, axis=(0, 2))
        if np.any(bad):
            raise MetricError(f"omega not positive at bus {sites.names[np.argmax(bad)]}")
        return metrics.pvur_values(np.sqrt(w)).T
    return _flow_values(spec, sites, state.flow_p[:, sites.index])


@dataclass(frozen=True)
class Evaluation:
    objective: float
    operational_ok: bool
    violations: tuple[str, ...] = ()


def check_operational(feeder: Feeder, constraints: ConstraintConfig,
                      solutions: powerflow.PFSeries) -> tuple[str, ...]:
    """Voltage band, thermal limits and convergence over a solved series.

    Violations are listed by timestep, then bus, then branch; a
    non-converged timestep reports only that.  Per-phase masks pick the
    steps to report; ranges and peaks are reduced for those steps alone.
    """
    mags = np.abs(solutions.u)
    bus_bad = (mags < constraints.v_min) | (mags > constraints.v_max)
    bus_bad[:, feeder.bus_index(feeder.reference_bus)] = False
    limits = feeder.pf_tables.limits
    flows = (np.abs(solutions.s_from), np.abs(solutions.current))
    over = [flow > lim[:, None] for flow, lim in zip(flows, limits.T)]  # per kind: (T, branch, 3)
    steps = ~solutions.converged
    for bad in (bus_bad, *over):
        if bad.any():
            steps |= bad.any(axis=(1, 2))
    violations = []
    for t in np.flatnonzero(steps):
        if not solutions.converged[t]:
            violations.append(f"t={t}: power flow did not converge")
            continue
        for b in np.flatnonzero(bus_bad[t].any(axis=1)):
            violations.append(
                f"t={t}: bus {feeder.buses[b]} voltage [{mags[t, b].min():.4f}, "
                f"{mags[t, b].max():.4f}] outside [{constraints.v_min}, {constraints.v_max}] pu")
        for k, kind in zip(*np.nonzero(np.stack([bad[t].any(axis=1) for bad in over], axis=1))):
            violations.append(
                f"t={t}: branch {feeder.branches[k].key} {('apparent power', 'current')[kind]} "
                f"{flows[kind][t, k].max():.4f} pu exceeds {limits[k, kind]:.4f} pu")
    return tuple(violations)


def evaluate_exact(problem: Problem, assignment: PhaseAssignment,
                   series: powerflow.PFSeries | None = None) -> Evaluation:
    """Exact-PF objective plus operational feasibility of a configuration;
    ``series`` is its power flow if already solved, as in a stacked block."""
    if series is None:
        series = powerflow.solve_series(problem.feeder, assignment, problem.loads)
    try:
        sols = series.check_collapse()
    except ConvergenceError as exc:
        return Evaluation(objective=np.inf, operational_ok=False, violations=(str(exc),))
    violations = check_operational(problem.feeder, problem.constraints, sols)
    value = metrics.aggregate(problem.objective,
                              metric_values_exact(problem.objective, problem.sites, sols))
    return Evaluation(objective=value, operational_ok=not violations, violations=violations)


def evaluate_ld3f(problem: Problem, assignment: PhaseAssignment,
                  state: lindist.Ld3fState | None = None) -> float:
    """Objective under the lossless linear model (no operational checks);
    ``state`` is its sweep if already done, as in a batch."""
    if state is None:
        state = lindist.evaluate_series(problem.feeder, assignment, problem.loads)
    return metrics.aggregate(problem.objective,
                             metric_values_ld3f(problem.objective, problem.sites, state))


def batch_states(problem: Problem, batch: list[PhaseAssignment], evaluator: str) -> list:
    """Each assignment's ``evaluate`` state, from one stacked power flow or one sweep."""
    if evaluator == "ld3f":
        s = lindist.evaluate_series(problem.feeder, batch, problem.loads)
        return [lindist.Ld3fState(*rows) for rows in zip(s.omega, s.flow_p, s.flow_q)]
    series, t = powerflow.solve_series(problem.feeder, batch, problem.loads), problem.loads.horizon
    return [series[k * t:(k + 1) * t] for k in range(len(batch))]


def evaluate(problem: Problem, assignment: PhaseAssignment, evaluator: str = "exact",
             state: powerflow.PFSeries | lindist.Ld3fState | None = None) -> float:
    """Objective under ``evaluator``; ``state`` is the assignment's own
    ``PFSeries`` (exact) or ``Ld3fState`` (ld3f) if already computed."""
    if evaluator == "exact":
        return evaluate_exact(problem, assignment, state).objective
    if evaluator == "ld3f":
        return evaluate_ld3f(problem, assignment, state)
    raise ValidationError(f"unknown evaluator {evaluator!r}; pick from {EVALUATORS}")
