"""Exhaustive search over feasible phase configurations.

Ground truth for the optimizers at desk scale: every configuration that
satisfies the switch budget (and, when enforced, the per-phase count
bounds) is scored with the chosen evaluator and the full ranking is
returned.  The budget-feasible configurations are generated as one array
in lexicographic order by ``network.completions``, so the work is
proportional to the feasible count rather than 3^n; the count is checked
against the cap before anything is generated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, InfeasibleProgramError
from .network import (PhaseAssignment, completion_count, completions, feasible_mask,
                      fixed_phase_counts, original_assignment)
from .problem import Problem, evaluate

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
    scored = []
    for a in map(PhaseAssignment, rows):
        scored.append((evaluate(problem, a, evaluator), a))
    scored.sort(key=lambda pair: pair[0])  # stable: lexicographic ties keep order
    best_obj, best = scored[0]
    return OracleResult(best=best, objective=best_obj, ranking=tuple(scored),
                        evaluated=len(scored))
