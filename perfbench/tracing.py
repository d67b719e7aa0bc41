"""Per-layer tracing from outside the package.

A Tracer wraps the public functions of each phasebal layer and rebinds
the wrapper at every place the package holds a reference to the
original: the defining module, every module that imported the name
(``ga.evaluate_exact``, ``oracle.evaluate``, ``miqp.solve_lp``, ...) and,
for methods, the class.  Each wrapped call is a span; a span's self time
is its duration minus the time of the traced spans it encloses.  Work
counters are read off the values the layers already return
(``PFSolution``, ``LpResult``, ``BnBResult``, ``GAResult``,
``OracleResult``), so nothing under ``src/`` changes.

Spans and counters stay in memory as running totals; nothing is written
until the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _pf_counts(tracer, state, result, args, kwargs):
    tracer.counts["powerflow.steps"] += len(result)
    tracer.counts["powerflow.iterations"] += sum(s.iterations for s in result)
    tracer.counts["powerflow.unconverged"] += sum(not s.converged for s in result)


def _lp_counts(tracer, state, result, args, kwargs):
    tracer.counts["simplex.pivots"] += result.iterations
    tracer.counts["simplex.not_optimal"] += result.status != "optimal"


def _bnb_counts(tracer, state, result, args, kwargs):
    tracer.counts["miqp.nodes"] += result.nodes
    tracer.counts["miqp.relaxations"] += result.relaxations_solved


def _batch_counts(tracer, state, result, args, kwargs):
    tracer.counts["miqp.objective_batch.candidates"] += len(result)


def _ga_counts(tracer, state, result, args, kwargs):
    tracer.counts["ga.fitness_calls"] += result.fitness_calls
    tracer.counts["ga.unique_evals"] += result.pf_evaluations


def _population_before(args, kwargs):
    evaluator = args[0]
    return len(evaluator.cache), evaluator.pf_evaluations


def _population_counts(tracer, state, result, args, kwargs):
    evaluator = args[0]
    cache_before, pf_before = state
    computed = len(evaluator.cache) - cache_before
    tracer.counts["ga.population_candidates"] += len(result)
    tracer.counts["ga.cache_hits"] += len(result) - computed
    tracer.counts["ga.computed"] += computed
    tracer.counts["ga.budget_rejects"] += computed - (evaluator.pf_evaluations
                                                      - pf_before)


def _oracle_counts(tracer, state, result, args, kwargs):
    tracer.counts["oracle.configs"] += result.evaluated


# (module, class or None, attribute, span name, before hook, after hook)
TARGETS = (
    ("powerflow", None, "solve_series", "powerflow.solve_series", None, _pf_counts),
    ("problem", None, "evaluate_exact", "problem.evaluate_exact", None, None),
    ("problem", None, "check_operational", "problem.check_operational", None, None),
    ("problem", None, "metric_values_exact", "problem.metric_values_exact", None, None),
    ("problem", None, "metric_values_ld3f", "problem.metric_values_ld3f", None, None),
    ("problem", None, "evaluate", "problem.evaluate", None, None),
    ("lindist", None, "evaluate_series", "lindist.evaluate_series", None, None),
    ("lindist", None, "sensitivity", "lindist.sensitivity", None, None),
    ("network", None, "binary_feasible", "network.binary_feasible", None, None),
    ("network", None, "injection_series", "network.injection_series", None, None),
    ("miqp", None, "build_program", "miqp.build_program", None, None),
    ("miqp", None, "branch_and_bound", "miqp.branch_and_bound", None, _bnb_counts),
    ("miqp", "BinaryProgram", "objective_batch", "miqp.objective_batch", None,
     _batch_counts),
    ("miqp", "BinaryProgram", "point_feasible", "miqp.point_feasible", None, None),
    ("simplex", None, "solve_lp", "simplex.solve_lp", None, _lp_counts),
    ("ga", None, "run_ga", "ga.run_ga", None, _ga_counts),
    ("ga", "FitnessEvaluator", "evaluate_population", "ga.evaluate_population",
     _population_before, _population_counts),
    ("oracle", None, "enumerate_optimal", "oracle.enumerate_optimal", None,
     _oracle_counts),
    ("harness", None, "cmd_optimize", "harness.cmd_optimize", None, None),
    ("harness", None, "metric_table", "harness.metric_table", None, None),
    ("harness", None, "cmd_validate", "harness.cmd_validate", None, None),
)

# The per-layer metric names the benchmark reports, in BENCHMARK.json order.
SPAN_METRICS = (
    ("powerflow.solve_series", ("calls", "time_s")),
    ("problem.evaluate_exact", ("calls", "time_s", "self_s")),
    ("problem.check_operational", ("calls", "time_s")),
    ("problem.metric_values_exact", ("calls", "time_s")),
    ("problem.metric_values_ld3f", ("calls", "time_s")),
    ("problem.evaluate", ("calls", "time_s")),
    ("lindist.evaluate_series", ("calls", "time_s")),
    ("lindist.sensitivity", ("calls", "time_s")),
    ("network.binary_feasible", ("calls", "time_s")),
    ("network.injection_series", ("calls", "time_s")),
    ("miqp.build_program", ("calls", "time_s")),
    ("miqp.branch_and_bound", ("time_s", "self_s")),
    ("miqp.objective_batch", ("calls", "time_s")),
    ("miqp.point_feasible", ("calls", "time_s")),
    ("simplex.solve_lp", ("calls", "time_s")),
    ("ga.run_ga", ("time_s", "self_s")),
    ("ga.evaluate_population", ("calls", "time_s")),
    ("oracle.enumerate_optimal", ("time_s", "self_s")),
    ("harness.cmd_optimize", ("time_s", "self_s")),
    ("harness.metric_table", ("calls", "time_s")),
    ("harness.cmd_validate", ("time_s", "self_s")),
)
COUNT_METRICS = ("powerflow.steps", "powerflow.iterations", "powerflow.unconverged",
                 "miqp.nodes", "miqp.relaxations", "miqp.objective_batch.candidates",
                 "simplex.pivots", "simplex.not_optimal", "ga.fitness_calls",
                 "ga.unique_evals", "oracle.configs")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "phasebal" or name.startswith("phasebal."))]


class Tracer:
    """Aggregated spans (calls, total, self) and counters over traced calls."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self._stack: list[list[float]] = []
        self._rebound: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [0.0]
            tracer._stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                span = tracer.spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[0]
            if after:
                after(tracer, state, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function at every site that holds it."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod_name, owner_name, attr, name, before, after in TARGETS:
            module = sys.modules[f"phasebal.{mod_name}"]
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            self.originals[name] = original
            wrapper = self._wrap(name, original, before, after)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, holder, key, wrapper) -> None:
        self._rebound.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._rebound):
            setattr(holder, key, original)
        self._rebound.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def stale_bindings(self) -> list[str]:
        """Sites in the package still bound to an unwrapped original."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        stale = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    stale.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("phasebal"):
                    for attr, member in vars(value).items():
                        if id(member) in originals:
                            stale.append(f"{mod.__name__}.{key}.{attr}")
        return stale

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit); spans and counters are averaged per traced op."""
        per_op = max(n_ops, 1)
        units = {"calls": "count", "time_s": "s", "self_s": "s"}
        fields = {"calls": 0, "time_s": 1, "self_s": 2}
        out = {}
        for name, kinds in SPAN_METRICS:
            span = self.spans.get(name, (0, 0.0, 0.0))
            for kind in kinds:
                out[f"{name}.{kind}"] = (span[fields[kind]] / per_op, units[kind])
        for name in COUNT_METRICS:
            out[name] = (self.counts[name] / per_op, "count")
        c = self.counts
        lp_solves = self.spans.get("simplex.solve_lp", (0,))[0]
        out["powerflow.iters_per_step"] = (
            _ratio(c["powerflow.iterations"], c["powerflow.steps"]), "ratio")
        out["simplex.pivots_per_solve"] = (_ratio(c["simplex.pivots"], lp_solves), "ratio")
        out["ga.cache_hit_ratio"] = (
            _ratio(c["ga.cache_hits"], c["ga.population_candidates"]), "ratio")
        out["ga.budget_reject_ratio"] = (
            _ratio(c["ga.budget_rejects"], c["ga.computed"]), "ratio")
        return out
