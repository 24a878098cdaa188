import numpy as np
import pytest

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


def test_seeds_that_fill_the_population_need_no_rng():
    # With no generation and the seeds filling the population, the random
    # plans a generator would draw are all overwritten, so leaving the
    # generator out changes nothing; without either condition it is needed.
    lo = np.full(3, -5.0)
    hi = np.full(3, 5.0)
    seeds = np.random.default_rng(5).uniform(-5.0, 5.0, (7, 3))
    cfg = GaConfig(population=6, generations=0)
    a = ga_seed(_sphere, _identity_repair, lo, hi, None, cfg, seeds=seeds)
    b = ga_seed(_sphere, _identity_repair, lo, hi, np.random.default_rng(4), cfg, seeds=seeds)
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.objective, a.violation, a.generations, a.history, a.evaluations) == \
        (b.objective, b.violation, b.generations, b.history, b.evaluations)
    assert a.generations == 0 and a.evaluations == 6
    for short in (GaConfig(population=8, generations=0), GaConfig(population=6, generations=1)):
        with pytest.raises(ValueError, match="rng"):
            ga_seed(_sphere, _identity_repair, lo, hi, None, short, seeds=seeds)


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
    # No plan is feasible and the penalised fitness cannot improve, yet the
    # run keeps its whole budget.
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)

    def flat_and_infeasible(pop):
        pop = np.atleast_2d(pop)
        return np.ones(pop.shape[0]), np.ones(pop.shape[0])

    result = ga_seed(flat_and_infeasible, _identity_repair, lo, hi,
                     np.random.default_rng(6), GaConfig(population=10, generations=400))
    assert result.generations == 400


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


def test_best_has_the_least_penalised_fitness():
    # Past x0 = 0 the objective falls by 1.5e4 per unit while the violation
    # grows by 1, so at the fixed weight of 1e4 the best plan is infeasible
    # (x0 = 1); a weight above 1.5e4 would make x0 = 0 the best.  Elites
    # carry the best over, so the final population's least penalised
    # fitness is the least over every evaluated plan.
    lo = np.full(2, -1.0)
    hi = np.full(2, 1.0)
    seen = []

    def tradeoff(pop):
        pop = np.atleast_2d(pop)
        obj = -1.5e4 * pop[:, 0] + pop[:, 1] ** 2
        vio = np.maximum(pop[:, 0], 0.0)
        seen.append(obj + ga.PENALTY * vio)
        return obj, vio

    result = ga_seed(tradeoff, _identity_repair, lo, hi, np.random.default_rng(8),
                     GaConfig(population=20, generations=50))
    assert result.violation > 0.9
    assert result.objective + ga.PENALTY * result.violation == np.concatenate(seen).min()
    assert all(set(row) == {"generation", "best_objective", "best_violation"} for row in result.history)
