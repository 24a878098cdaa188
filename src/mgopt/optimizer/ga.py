"""Real-coded genetic algorithm used to seed the SQP refinement.

The suite's rows start from a dynamic programme over the state of charge
(``dp.plan``).  Where it finds a plan the GA is called with no generation,
a population of its seeds alone (the DP plan first) and no random number
generator, and only scores them to keep the best; where it finds none the
GA searches with its configured budget.

Individuals are dispatch vectors in physical units.  Selection is by
tournament on an exterior-penalty fitness, recombination is blend crossover,
and mutation perturbs single genes with Gaussian noise.  Every new individual
passes through the problem's repair, so the population stays inside device
windows throughout; the penalty therefore only prices network-level
violations (voltage, grid limit), at one fixed weight.

A run stops on evidence: once its best plan is feasible and its best
penalised fitness has not improved by ``PROGRESS`` (relative) in
``PATIENCE`` generations, further generations are not run.  A run whose
best stays infeasible uses the whole budget.

``GaConfig`` holds the budget, population and generations (a cap: see
``GaResult.generations`` for the count run); the operators' settings, the
penalty weight and the stop rule are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

TOURNAMENT = 3  # contestants per selection
CROSSOVER_RATE = 0.9  # share of children made by crossover; the rest copy a parent
BLEND_ALPHA = 0.5  # blend crossover's widening of the parents' interval, each side
MUTATION_SCALE = 0.1  # mutation noise, as a share of each gene's span
ELITES = 2  # best individuals carried over unchanged
PENALTY = 1e4  # exterior-penalty weight on the violation
# Relative improvement of the best fitness, against |best|, that counts as
# progress for the stop rule.  Not against max(1, |best|): weighted totals
# are about 0.1.
PROGRESS = 1e-3
PATIENCE = 20  # generations without progress after which a feasible best stops the run


@dataclass
class GaConfig:
    population: int = 60
    generations: int = 150


@dataclass
class GaResult:
    x: np.ndarray
    objective: float
    violation: float
    generations: int
    history: List[Dict]
    evaluations: int


def ga_seed(
    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    repair: Callable[[np.ndarray], np.ndarray],
    lower: Sequence[float],
    upper: Sequence[float],
    rng: Optional[np.random.Generator],
    config: Optional[GaConfig] = None,
    seeds: Optional[np.ndarray] = None,
) -> GaResult:
    """Search the box [lower, upper] for a low-cost near-feasible point.

    ``evaluate`` maps a population matrix [pop, n] to (objective, violation)
    vectors; ``repair`` projects a population back onto device-feasible
    points.  The returned plan has the least ``objective + PENALTY *
    violation`` in the final population, ties going to the lower objective.
    ``rng`` may be None where the seeds fill the population and no
    generation runs: then no random plan is drawn.
    """
    cfg = config or GaConfig()
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    n = lo.size
    span = hi - lo
    pop_size = cfg.population

    seeds = np.atleast_2d(np.asarray(seeds, dtype=float)) if seeds is not None and seeds.size else np.zeros((0, n))
    count = min(seeds.shape[0], pop_size)
    if rng is None:
        if count < pop_size or cfg.generations > 0:
            raise ValueError("ga_seed without an rng needs seeds that fill the population and no generation")
        pop = np.empty((pop_size, n))
    else:
        pop = lo + rng.random((pop_size, n)) * span
    pop[:count] = seeds[:count]
    pop = repair(pop)

    obj, vio = evaluate(pop)
    fit = obj + PENALTY * vio
    evaluations = pop_size
    history: List[Dict] = []
    quiet = 0  # generations since the best fitness last made progress
    progress_key = np.inf
    generations_run = 0

    for gen in range(1, cfg.generations + 1):
        generations_run = gen
        order = np.lexsort((vio, fit))
        elite = pop[order[: ELITES]].copy()
        elite_obj = obj[order[: ELITES]].copy()
        elite_vio = vio[order[: ELITES]].copy()

        n_children = pop_size - ELITES
        picks = rng.integers(0, pop_size, size=(2 * n_children, TOURNAMENT))
        winners = picks[np.arange(2 * n_children), np.argmin(fit[picks], axis=1)]
        parents_a = pop[winners[:n_children]]
        parents_b = pop[winners[n_children:]]

        # Blend crossover samples each gene uniformly from the interval
        # spanned by the parents, widened by alpha on both sides.
        low = np.minimum(parents_a, parents_b)
        high = np.maximum(parents_a, parents_b)
        width = high - low
        children = low - BLEND_ALPHA * width + rng.random((n_children, n)) * (1 + 2 * BLEND_ALPHA) * width
        skip = rng.random(n_children) >= CROSSOVER_RATE
        children[skip] = parents_a[skip]

        mutate = rng.random((n_children, n)) < (1.0 / n)
        noise = rng.normal(0.0, MUTATION_SCALE, size=(n_children, n)) * span
        children = np.where(mutate, children + noise, children)

        children = repair(np.clip(children, lo, hi))
        child_obj, child_vio = evaluate(children)
        evaluations += n_children

        pop = np.vstack([elite, children])
        obj = np.concatenate([elite_obj, child_obj])
        vio = np.concatenate([elite_vio, child_vio])
        fit = obj + PENALTY * vio

        i = int(np.lexsort((obj, fit))[0])
        history.append({"generation": gen, "best_objective": float(obj[i]),
                        "best_violation": float(vio[i])})

        # The first generation is progress by definition; inf - PROGRESS *
        # inf is nan, and nothing compares below it.
        if progress_key == np.inf or fit[i] < progress_key - PROGRESS * abs(progress_key):
            progress_key = fit[i]
            quiet = 0
        else:
            quiet += 1
        if quiet >= PATIENCE and vio[i] == 0:
            break

    i = int(np.lexsort((obj, fit))[0])
    return GaResult(
        x=pop[i].copy(),
        objective=float(obj[i]),
        violation=float(vio[i]),
        generations=generations_run,
        history=history,
        evaluations=evaluations,
    )
