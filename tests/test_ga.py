import numpy as np

import mgopt.optimizer.ga as ga
from mgopt.optimizer import GaConfig, ga_seed


def _sphere(pop):
    pop = np.atleast_2d(pop)
    return (pop ** 2).sum(axis=1), np.zeros(pop.shape[0])


def _identity_repair(pop):
    return pop


def test_sphere_improves_over_random():
    lo = np.full(6, -5.0)
    hi = np.full(6, 5.0)
    cfg = GaConfig(population=40, generations=60)
    result = ga_seed(_sphere, _identity_repair, lo, hi, np.random.default_rng(1), cfg)
    assert result.objective < 0.5
    assert result.violation == 0.0
    # The best keeps improving, so the stop rule never fires: every
    # PATIENCE-generation window improved it by PROGRESS.
    assert result.generations == 60
    assert result.evaluations == 40 + 60 * (40 - 2)
    best = [row["best_objective"] for row in result.history]
    for start in range(len(best) - ga.PATIENCE):
        assert best[start + ga.PATIENCE] < best[start] * (1.0 - ga.PROGRESS)


def test_same_rng_seed_reproduces():
    lo = np.full(4, -2.0)
    hi = np.full(4, 2.0)
    cfg = GaConfig(population=20, generations=25)
    a = ga_seed(_sphere, _identity_repair, lo, hi, np.random.default_rng(9), cfg)
    b = ga_seed(_sphere, _identity_repair, lo, hi, np.random.default_rng(9), cfg)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert a.history == b.history


def test_population_respects_bounds():
    lo = np.array([-1.0, 0.0, 2.0])
    hi = np.array([1.0, 0.5, 4.0])
    seen = []

    def watching(pop):
        pop = np.atleast_2d(pop)
        seen.append(pop.copy())
        return (pop ** 2).sum(axis=1), np.zeros(pop.shape[0])

    ga_seed(watching, _identity_repair, lo, hi, np.random.default_rng(3),
            GaConfig(population=15, generations=10))
    stacked = np.vstack(seen)
    assert (stacked >= lo - 1e-12).all()
    assert (stacked <= hi + 1e-12).all()


def test_seeds_join_population():
    lo = np.full(3, -5.0)
    hi = np.full(3, 5.0)
    # Plant the exact optimum; elitism must keep it through every generation.
    seeds = np.zeros((1, 3))
    result = ga_seed(_sphere, _identity_repair, lo, hi, np.random.default_rng(4),
                     GaConfig(population=12, generations=8), seeds=seeds)
    assert result.objective == 0.0
    assert np.array_equal(result.x, np.zeros(3))


def test_repair_applies_to_every_individual():
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)

    def snap_first_gene(pop):
        out = np.atleast_2d(pop).copy()
        out[:, 0] = 0.25
        return out

    def check(pop):
        pop = np.atleast_2d(pop)
        assert (pop[:, 0] == 0.25).all()
        return (pop ** 2).sum(axis=1), np.zeros(pop.shape[0])

    result = ga_seed(check, snap_first_gene, lo, hi, np.random.default_rng(5),
                     GaConfig(population=10, generations=6))
    assert result.x[0] == 0.25


def test_penalty_grows_when_best_is_infeasible():
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)

    def never_feasible(pop):
        pop = np.atleast_2d(pop)
        return (pop ** 2).sum(axis=1), np.ones(pop.shape[0])

    result = ga_seed(never_feasible, _identity_repair, lo, hi,
                     np.random.default_rng(6), GaConfig(population=10, generations=60))
    assert result.violation == 1.0
    penalties = [row["penalty"] for row in result.history]
    assert penalties[0] == ga.PENALTY_INIT
    assert max(penalties) > ga.PENALTY_INIT
    # Every escalation multiplies the weight by the growth factor.
    assert {b / a for a, b in zip(penalties, penalties[1:]) if b != a} == {ga.PENALTY_GROWTH}


def test_feasible_preferred_over_cheaper_infeasible():
    lo = np.full(1, -1.0)
    hi = np.full(1, 1.0)

    def split(pop):
        pop = np.atleast_2d(pop)
        # Negative genes look cheap but violate; positive genes are feasible.
        obj = np.where(pop[:, 0] < 0.0, -100.0, pop[:, 0])
        vio = np.where(pop[:, 0] < 0.0, 1.0, 0.0)
        return obj, vio

    result = ga_seed(split, _identity_repair, lo, hi, np.random.default_rng(7),
                     GaConfig(population=30, generations=40))
    assert result.violation == 0.0
    assert result.x[0] >= 0.0


def test_seeded_optimum_stops_after_patience():
    # The planted optimum is the best from generation 1 on, and nothing can
    # improve on it, so the run ends PATIENCE generations later.
    lo = np.full(3, -5.0)
    hi = np.full(3, 5.0)
    cfg = GaConfig(population=12, generations=100)
    result = ga_seed(_sphere, _identity_repair, lo, hi, np.random.default_rng(4), cfg, seeds=np.zeros((1, 3)))
    assert result.objective == 0.0
    assert result.generations == ga.PATIENCE + 1
    assert len(result.history) == result.generations
    assert result.evaluations == cfg.population + result.generations * (cfg.population - ga.ELITES)


def test_infeasible_best_never_stops_early():
    # No plan is feasible and the objective alone cannot improve once the
    # penalty stops growing at its cap, yet the run keeps its whole budget.
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)

    def flat_and_infeasible(pop):
        pop = np.atleast_2d(pop)
        return np.ones(pop.shape[0]), np.ones(pop.shape[0])

    result = ga_seed(flat_and_infeasible, _identity_repair, lo, hi,
                     np.random.default_rng(6), GaConfig(population=10, generations=400))
    assert result.generations == 400
    penalties = [row["penalty"] for row in result.history]
    capped = penalties.index(max(penalties))
    assert max(penalties) >= ga.PENALTY_CAP and len(penalties) - capped > ga.PATIENCE


def test_progress_is_relative_to_the_best():
    # A problem whose optimum is 1 stops before its budget; scaled by 1e-3
    # it takes the same path and stops at the same generation.
    lo = np.full(4, -2.0)
    hi = np.full(4, 2.0)
    cfg = GaConfig(population=20, generations=200)
    runs = []
    for scale in (1.0, 1e-3):
        def offset_sphere(pop, scale=scale):
            pop = np.atleast_2d(pop)
            return scale * (1.0 + (pop ** 2).sum(axis=1)), np.zeros(pop.shape[0])

        runs.append(ga_seed(offset_sphere, _identity_repair, lo, hi, np.random.default_rng(2), cfg))
    full, scaled = runs
    assert ga.PATIENCE + 1 < full.generations < cfg.generations
    assert scaled.generations == full.generations
    assert np.array_equal(scaled.x, full.x)


def test_an_improving_infeasible_best_never_escalates():
    # The best stays infeasible but its objective falls every generation, so
    # the penalty's stall counter never reaches STALL_GENERATIONS.
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)
    calls = []

    def improving_and_infeasible(pop):
        pop = np.atleast_2d(pop)
        calls.append(None)
        return np.full(pop.shape[0], -float(len(calls))), np.ones(pop.shape[0])

    result = ga_seed(improving_and_infeasible, _identity_repair, lo, hi,
                     np.random.default_rng(6), GaConfig(population=10, generations=60))
    assert result.violation == 1.0
    assert {row["penalty"] for row in result.history} == {ga.PENALTY_INIT}


def test_penalty_never_exceeds_its_cap():
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)

    def flat_and_infeasible(pop):
        pop = np.atleast_2d(pop)
        return np.ones(pop.shape[0]), np.ones(pop.shape[0])

    result = ga_seed(flat_and_infeasible, _identity_repair, lo, hi,
                     np.random.default_rng(6), GaConfig(population=10, generations=400))
    penalties = [row["penalty"] for row in result.history]
    assert max(penalties) == ga.PENALTY_CAP
