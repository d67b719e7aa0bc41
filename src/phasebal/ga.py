"""Genetic algorithm over integer phase configurations.

Candidates are integer lists (one phase per reconfigurable user).  The
fitness of a candidate is the exact-PF objective, with a large penalty of
M times the original configuration's objective when constraints are
violated.  Switch-budget and phase-count checks run before any power flow
so that infeasible-by-construction candidates cost nothing; operational
violations (voltage band, thermal limits, non-convergence) add the same
penalty on top of the objective.

Operators: binary tournament selection, single point crossover, random
resetting mutation, elitist replacement.  The run is deterministic given
the seed, and repeated candidates are served from a memo cache (cache
hits still count against the fitness-call budget).

A generation's unique, budget-feasible candidates are solved in chunks of
at most ``problem.CHUNK_ROWS["exact"]`` power-flow rows, each as one
stacked block, and each candidate's slice goes through ``evaluate_exact``.
A stacked step equals its own solve bitwise, so no fitness depends on the
chunking; with ``threads > 1`` the chunks are spread over the workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import (PhaseAssignment, binary_feasible, feasible_mask, fixed_phase_counts,
                      original_assignment)
from .problem import CHUNK_ROWS, Problem, batch_states, evaluate_exact


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100
    max_fitness_calls: int = 6000
    crossover_prob: float = 0.7
    mutation_prob: float | None = None  # None -> 1 / n_genes
    penalty_multiplier: float = 100.0
    rng_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.population_size < 2 or self.population_size % 2:
            raise ValidationError("population size must be even and >= 2")
        for p in (self.crossover_prob,
                  self.mutation_prob if self.mutation_prob is not None else 0.0):
            if not 0.0 <= p <= 1.0:
                raise ValidationError("probabilities must lie in [0, 1]")
        if self.penalty_multiplier <= 1.0:
            raise ValidationError("penalty multiplier must exceed 1")


@dataclass
class GAResult:
    best: PhaseAssignment
    best_fitness: float
    trace: list  # per generation: (best, median, worst)
    fitness_calls: int
    pf_evaluations: int
    feasible: bool


class FitnessEvaluator:
    """Penalty fitness with memoization and call accounting."""

    def __init__(self, problem: Problem, penalty_multiplier: float = 100.0):
        self.problem = problem
        self.m = penalty_multiplier
        self.a0 = original_assignment(problem.feeder)
        cons = problem.constraints
        self._mask_args = (self.a0.phases, cons.delta_max,
                           fixed_phase_counts(problem.feeder), cons.phase_count_bounds)
        self.cache: dict[tuple, float] = {}
        self.fitness_calls = 0
        self.i0 = evaluate_exact(problem, self.a0).objective
        self.pf_evaluations = 1

    def _exact(self, chunk: list[tuple]) -> list[float]:
        """Penalized exact-PF fitness of feasible candidates, solved as one
        stacked block; pure so that chunks can run on worker threads."""
        batch, values = [PhaseAssignment(c) for c in chunk], []
        for a, series in zip(batch, batch_states(self.problem, batch, "exact")):
            ev = evaluate_exact(self.problem, a, series)
            value = ev.objective
            if not ev.operational_ok or not np.isfinite(value):
                value = (value if np.isfinite(value) else 0.0) + self.m * self.i0
            values.append(value)
        return values

    def __call__(self, c) -> float:
        return self.evaluate_population([c])[0]

    def evaluate_population(self, population, threads: int = 1) -> list[float]:
        """Fitness of each candidate; deterministic for any thread count.

        Duplicates are collapsed and the switch budget and phase counts
        are checked for the whole batch before dispatch, so the PF work
        (and its accounting) does not depend on scheduling.
        """
        self.fitness_calls += len(population)
        keys = [tuple(map(int, c)) for c in population]
        unique = [c for c in dict.fromkeys(keys) if c not in self.cache]
        if unique:
            ok = feasible_mask(unique, *self._mask_args)
            todo = [c for c, good in zip(unique, ok) if good]
            size = max(1, CHUNK_ROWS["exact"] // self.problem.loads.horizon)
            chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
            if threads > 1 and len(chunks) > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    values = [v for vs in pool.map(self._exact, chunks) for v in vs]
            else:
                values = [v for chunk in chunks for v in self._exact(chunk)]
            self.pf_evaluations += len(todo)
            exact = dict(zip(todo, values))
            for c in unique:
                self.cache[c] = exact.get(c, self.m * self.i0)
        return [self.cache[c] for c in keys]


def tournament_select(population, fitnesses, rng) -> list[tuple]:
    """p/2 parent pairs; each parent wins a uniform 2-candidate tournament."""
    n = len(population)
    pairs = []
    for _ in range(n // 2):
        parents = []
        for _ in range(2):
            i, j = rng.integers(0, n, size=2)
            parents.append(population[i] if fitnesses[i] <= fitnesses[j]
                           else population[j])
        pairs.append(tuple(parents))
    return pairs


def crossover_single_point(pa, pb, crossover_prob, rng):
    if len(pa) != len(pb):
        raise ValidationError("parent length mismatch")
    pa, pb = tuple(pa), tuple(pb)
    if len(pa) < 2 or rng.random() >= crossover_prob:
        return pa, pb
    cut = int(rng.integers(1, len(pa)))
    return pa[:cut] + pb[cut:], pb[:cut] + pa[cut:]


def mutate_random_reset(c, mutation_prob, rng):
    """Resample each gene uniformly from the three phases with prob P_m."""
    out = list(c)
    for i in range(len(out)):
        if rng.random() < mutation_prob:
            out[i] = int(rng.integers(1, 4))
    return tuple(out)


def run_ga(problem: Problem, config: GAConfig) -> GAResult:
    feeder = problem.feeder
    n_genes = len(feeder.reconfigurable_users())
    if n_genes == 0:
        raise ValidationError("no reconfigurable users to optimize")
    rng = np.random.default_rng(config.rng_seed)
    p_m = config.mutation_prob if config.mutation_prob is not None else 1.0 / n_genes
    evaluator = FitnessEvaluator(problem, config.penalty_multiplier)
    c0 = original_assignment(feeder).phases
    population = [c0]
    while len(population) < config.population_size:
        population.append(tuple(int(g) for g in rng.integers(1, 4, size=n_genes)))
    fitnesses = evaluator.evaluate_population(population, config.threads)
    trace = []

    def record():
        srt = sorted(fitnesses)
        trace.append((srt[0], float(np.median(srt)), srt[-1]))

    record()
    while evaluator.fitness_calls < config.max_fitness_calls:
        pairs = tournament_select(population, fitnesses, rng)
        offspring = []
        for pa, pb in pairs:
            ca, cb = crossover_single_point(pa, pb, config.crossover_prob, rng)
            offspring.append(mutate_random_reset(ca, p_m, rng))
            offspring.append(mutate_random_reset(cb, p_m, rng))
        child_fit = evaluator.evaluate_population(offspring, config.threads)
        # elitist replacement: fittest p of parents + offspring, stable ties
        merged = list(zip(population, fitnesses)) + list(zip(offspring, child_fit))
        merged.sort(key=lambda cf: cf[1])
        population = [c for c, _ in merged[: config.population_size]]
        fitnesses = [f for _, f in merged[: config.population_size]]
        record()
    best_i = int(np.argmin(fitnesses))
    best = PhaseAssignment(population[best_i])
    ev = evaluate_exact(problem, best)
    feasible = binary_feasible(feeder, best, problem.constraints) and ev.operational_ok
    return GAResult(best=best, best_fitness=fitnesses[best_i], trace=trace,
                    fitness_calls=evaluator.fitness_calls,
                    pf_evaluations=evaluator.pf_evaluations,
                    feasible=feasible)
