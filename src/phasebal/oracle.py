"""Exhaustive search over feasible phase configurations.

Ground truth for the optimizers at desk scale: every configuration within
the switch budget (and, when enforced, the per-phase count bounds) is
scored with the chosen evaluator and the full ranking returned.  The rows
come as one lexicographic array from ``network.completions``, their count
checked against the cap first.  Each chunk of rows gets one batched state
(``problem.batch_states``), each configuration one ``evaluate``: metrics,
warnings and ranking stay per configuration, bitwise as if unchunked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, InfeasibleProgramError, ValidationError
from .network import (PhaseAssignment, completion_count, completions, feasible_mask,
                      fixed_phase_counts, original_assignment)
from .problem import CHUNK_ROWS, EVALUATORS, Problem, batch_states, evaluate

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class OracleResult:
    best: PhaseAssignment
    objective: float
    ranking: tuple  # (objective, PhaseAssignment), best first, stable ties
    evaluated: int


def enumerate_optimal(problem: Problem, evaluator: str = "exact",
                      cap: int = DEFAULT_CAP) -> OracleResult:
    """Score every feasible configuration; return the minimum and ranking."""
    if evaluator not in CHUNK_ROWS:
        raise ValidationError(f"unknown evaluator {evaluator!r}; pick from {EVALUATORS}")
    cons = problem.constraints
    c0 = original_assignment(problem.feeder).phases
    bound = completion_count(len(c0), cons.delta_max)
    if bound > cap:
        raise CapExceededError(
            f"up to {bound} feasible configurations exceeds the cap {cap}; "
            f"lower delta_max or the number of reconfigurable users")
    rows = completions(c0, (0,) * len(c0), cons.delta_max)
    rows = rows[feasible_mask(rows, c0, cons.delta_max, fixed_phase_counts(problem.feeder),
                              cons.phase_count_bounds)]
    if len(rows) == 0:
        raise InfeasibleProgramError(
            "no configuration within the switch budget meets the phase-count bounds")
    size, scored = max(1, CHUNK_ROWS[evaluator] // problem.loads.horizon), []
    for start in range(0, len(rows), size):
        batch = [PhaseAssignment(r) for r in rows[start:start + size]]
        scored += [(evaluate(problem, a, evaluator, state), a)
                   for a, state in zip(batch, batch_states(problem, batch, evaluator))]
    scored.sort(key=lambda pair: pair[0])  # stable: lexicographic ties keep order
    best_obj, best = scored[0]
    return OracleResult(best=best, objective=best_obj, ranking=tuple(scored),
                        evaluated=len(scored))
