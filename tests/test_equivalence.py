import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from colosim import cli, equivalence
from colosim.equivalence import (
    GradientBatch,
    LossKind,
    SgdConfig,
    TrainingState,
    average_gradients,
    check_neutrality,
    initial_state,
    local_gradient,
    loss_gradient,
    loss_value,
    make_dataset,
    run_crossover,
    run_isolated,
    sgd_step,
)

from oracles import batch_indices_reference, finite_difference_gradient

# sha256 over the parameter bytes of every state of run_crossover, then of
# run_isolated per job, for each cell of the CLI grid at seeds 0, 5 and 123
# with 60 iterations; see _grid_digest for the order.
GRID_DIGEST = "38ef243ceb6077e70f742bb896df4dccb872c5d26453712d09f9f2ade54a0d67"


def config(loss=LossKind.LEAST_SQUARES, workers=2, seed=7, lr=0.05):
    return SgdConfig(learning_rate=lr, workers=workers, loss=loss, dataset_seed=seed)


class TestLossGradient:
    def test_zero_at_exact_solution(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 5))
        w = rng.standard_normal(5)
        y = x @ w  # consistent targets: w is the exact optimum
        grad = loss_gradient(LossKind.LEAST_SQUARES, w, x, y)
        assert np.array_equal(grad, np.zeros(5))

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_matches_finite_differences(self, loss):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 6))
        y = (x @ rng.standard_normal(6)
             if loss is LossKind.LEAST_SQUARES
             else (rng.standard_normal(30) > 0).astype(np.float64))
        for _ in range(20):
            params = rng.standard_normal(6)
            analytic = loss_gradient(loss, params, x, y)
            numeric = finite_difference_gradient(
                lambda p: loss_value(loss, p, x, y), params)
            rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
            assert rel < 1e-6

    def test_duplicating_points_keeps_mean_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal(16)
        params = rng.standard_normal(4)
        once = loss_gradient(LossKind.LEAST_SQUARES, params, x, y)
        twice = loss_gradient(LossKind.LEAST_SQUARES, params,
                              np.vstack([x, x]), np.concatenate([y, y]))
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_gradient(LossKind.LEAST_SQUARES, np.zeros(3),
                          np.zeros((4, 2)), np.zeros(4))


class TestAverageGradients:
    def test_identical_vectors(self):
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(average_gradients(GradientBatch([g, g, g])), g)

    def test_single_worker_identity(self):
        g = np.array([0.5, 0.25])
        assert np.array_equal(average_gradients(GradientBatch([g])), g)

    def test_mean_of_basis_vectors(self):
        basis = [np.eye(4)[k] for k in range(4)]
        assert np.array_equal(average_gradients(GradientBatch(basis)),
                              np.full(4, 0.25))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            average_gradients(GradientBatch([]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            average_gradients(GradientBatch([np.zeros(2), np.zeros(3)]))

    def test_fixed_order_is_bit_stable(self):
        rng = np.random.default_rng(9)
        grads = [rng.standard_normal(8) for _ in range(5)]
        a = average_gradients(GradientBatch(grads))
        b = average_gradients(GradientBatch([g.copy() for g in grads]))
        assert np.array_equal(a, b)


class TestSgdStep:
    def test_zero_gradient_keeps_parameters(self):
        state = initial_state(config(), rng_seed=1)
        stepped = sgd_step(state, np.zeros(8), config())
        assert np.array_equal(stepped.parameters, state.parameters)
        assert stepped.iteration == 1

    def test_arithmetic(self):
        state = TrainingState(np.array([1.0, 1.0]), 0, 0)
        cfg = SgdConfig(learning_rate=0.1, workers=1,
                        loss=LossKind.LEAST_SQUARES, dataset_seed=0, dim=2)
        stepped = sgd_step(state, np.array([1.0, -1.0]), cfg)
        assert np.array_equal(stepped.parameters, np.array([0.9, 1.1]))

    def test_shape_mismatch(self):
        state = initial_state(config(), rng_seed=1)
        with pytest.raises(ValueError):
            sgd_step(state, np.zeros(3), config())


class TestRunIsolated:
    def test_one_iteration_is_one_averaged_step(self):
        cfg = config(workers=3)
        state = initial_state(cfg, rng_seed=4)
        grads = GradientBatch([local_gradient(state, w, cfg) for w in range(3)])
        expected = sgd_step(state, average_gradients(grads), cfg)
        trajectory = run_isolated(cfg, 1, rng_seed=4)
        assert len(trajectory) == 1
        assert np.array_equal(trajectory[0].parameters, expected.parameters)

    def test_deterministic_across_runs(self):
        a = run_isolated(config(), 20, rng_seed=2)
        b = run_isolated(config(), 20, rng_seed=2)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.parameters, sb.parameters)

    def test_least_squares_loss_decreases(self):
        cfg = config(lr=0.05, workers=2, seed=13)
        x, y = make_dataset(cfg)
        trajectory = run_isolated(cfg, 40, rng_seed=3)
        losses = [loss_value(cfg.loss, initial_state(cfg, 3).parameters, x, y)]
        losses += [loss_value(cfg.loss, s.parameters, x, y) for s in trajectory]
        assert losses[-1] < losses[0]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_worker_index_validated(self):
        with pytest.raises(ValueError):
            local_gradient(initial_state(config(workers=2)), 2, config(workers=2))


class TestRunCrossover:
    def test_single_job_degenerates_to_isolated(self):
        cfg = config()
        crossed = run_crossover([cfg], 25, [6])
        isolated = run_isolated(cfg, 25, 6)
        assert len(crossed[0]) == len(isolated)
        for a, b in zip(isolated, crossed[0]):
            assert np.array_equal(a.parameters, b.parameters)

    def test_two_heterogeneous_jobs_match_isolated_exactly(self):
        cfgs = [config(LossKind.LEAST_SQUARES, workers=4, seed=21),
                config(LossKind.LOGISTIC, workers=4, seed=22)]
        report = check_neutrality(cfgs, 100, [1, 2])
        assert report.equal
        assert report.max_abs_deviation == 0.0

    def test_job_order_is_irrelevant(self):
        cfg_a = config(LossKind.LEAST_SQUARES, seed=31)
        cfg_b = config(LossKind.LOGISTIC, seed=32)
        fwd = run_crossover([cfg_a, cfg_b], 30, [5, 6])
        rev = run_crossover([cfg_b, cfg_a], 30, [6, 5])
        assert len(fwd[0]) == len(rev[1]) == 30
        assert len(fwd[1]) == len(rev[0]) == 30
        for a, b in zip(fwd[0], rev[1]):
            assert np.array_equal(a.parameters, b.parameters)
        for a, b in zip(fwd[1], rev[0]):
            assert np.array_equal(a.parameters, b.parameters)

    def test_trajectory_lengths(self):
        trajs = run_crossover([config(seed=1), config(seed=2)], 7)
        assert [len(t) for t in trajs] == [7, 7]
        assert all(s.iteration == i + 1 for t in trajs for i, s in enumerate(t))

    def test_perturbation_hook_is_detected(self):
        cfgs = [config(seed=41), config(seed=42)]
        report = check_neutrality(cfgs, 10, [0, 1], perturb=(1, 4))
        assert not report.equal
        assert report.first_divergence is not None
        job, iteration, _ = report.first_divergence
        assert (job, iteration) == (1, 4)
        assert report.max_abs_deviation > 0.0


def _renumbered(state: TrainingState, iteration: int) -> TrainingState:
    return TrainingState(state.parameters, iteration, state.rng_seed)


# Broken interleaved runs, each with the iteration check_neutrality must name
# for a 5-iteration run.
TRAJECTORY_MUTANTS = {
    "skips_final_drain": (lambda t: t[:-1], 5),
    "drops_a_middle_state": (lambda t: t[:2] + t[3:], 3),
    "repeats_a_state": (lambda t: t[:2] + [t[1]] + t[2:-1], 3),
    "extra_state": (lambda t: t + [_renumbered(t[-1], 6)], 6),
    "misnumbered_state": (lambda t: t[:3] + [_renumbered(t[3], 7)] + t[4:], 4),
}


class TestCheckNeutrality:
    @pytest.fixture
    def mutate(self, monkeypatch):
        def install(edit):
            real = equivalence.run_crossover
            monkeypatch.setattr(
                equivalence, "run_crossover",
                lambda *args, **kwargs: [edit(t) for t in real(*args, **kwargs)])
        return install

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_MUTANTS))
    def test_broken_trajectory_is_a_divergence(self, mutate, name):
        edit, iteration = TRAJECTORY_MUTANTS[name]
        mutate(edit)
        report = check_neutrality([config(seed=51), config(seed=52)], 5, [0, 1])
        assert not report.equal
        assert report.first_divergence == (0, iteration, 0)

    def test_cli_fails_on_a_skipped_final_drain(self, mutate, capsys):
        mutate(TRAJECTORY_MUTANTS["skips_final_drain"][0])
        assert cli.main(["equivalence", "--iters", "5"]) == cli.EXIT_EQUIVALENCE
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "iteration=5" in captured.err


def _grid_digest(seeds=(0, 5, 123), iterations=60) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for n_jobs in cli._EQUIV_JOB_COUNTS:
            for workers in cli._EQUIV_WORKER_COUNTS:
                configs = cli._equiv_configs(n_jobs, workers, seed)
                rng_seeds = [seed + 31 * j for j in range(n_jobs)]
                for trajectory in run_crossover(configs, iterations, rng_seeds):
                    for state in trajectory:
                        h.update(state.parameters.tobytes())
                for cfg, rng_seed in zip(configs, rng_seeds):
                    for state in run_isolated(cfg, iterations, rng_seed):
                        h.update(state.parameters.tobytes())
    return h.hexdigest()


def test_cli_grid_trajectories_are_pinned():
    assert _grid_digest() == GRID_DIGEST


class TestBatchDraws:
    @given(rng_seed=st.integers(0, 2**32), dataset_size=st.integers(1, 1000),
           batch_size=st.integers(1, 64),
           keys=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                         min_size=1, max_size=12))
    def test_cached_draws_match_a_fresh_generator(self, rng_seed, dataset_size,
                                                  batch_size, keys):
        for _ in range(2):  # the second pass starts from an empty cache
            for iteration, worker in keys * 2:
                got = equivalence._batch_indices(rng_seed, iteration, worker,
                                                 dataset_size, batch_size)
                want = batch_indices_reference(rng_seed, iteration, worker,
                                               dataset_size, batch_size)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            equivalence._batch_indices.cache_clear()

    def test_returned_draw_is_read_only(self):
        idx = equivalence._batch_indices(3, 1, 0, 128, 16)
        with pytest.raises(ValueError):
            idx[0] = 0
        assert np.array_equal(idx, batch_indices_reference(3, 1, 0, 128, 16))

    def test_shared_dataset_is_read_only(self):
        x, y = make_dataset(config(seed=71))
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
        with pytest.raises(ValueError):
            y[0] = 0.0

    def test_each_draw_is_made_once_and_shared_by_both_runs(self):
        equivalence._batch_indices.cache_clear()
        report = check_neutrality([config(workers=3, seed=61),
                                   config(workers=2, seed=62)], 10, [8, 9])
        assert report.equal
        info = equivalence._batch_indices.cache_info()
        assert info.misses == (3 + 2) * 10
        assert info.hits == info.misses

    def test_cache_holds_the_default_cli_grid(self, capsys):
        equivalence._batch_indices.cache_clear()
        assert cli.main(["equivalence"]) == cli.EXIT_OK
        info = equivalence._batch_indices.cache_info()
        assert info.misses == info.currsize == 1200  # 3 job seeds x 4 workers x 100


class TestConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0, workers=1,
                      loss=LossKind.LEAST_SQUARES, dataset_seed=0)

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.1, workers=0,
                      loss=LossKind.LEAST_SQUARES, dataset_seed=0)

    def test_run_validation(self):
        with pytest.raises(ValueError):
            run_isolated(config(), 0)
        with pytest.raises(ValueError):
            run_crossover([], 5)
        with pytest.raises(ValueError):
            run_crossover([config()], 5, [1, 2])
