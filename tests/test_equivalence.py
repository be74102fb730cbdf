import gc
import hashlib
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from colosim import cli, equivalence
from colosim.comm import Architecture, ClusterSpec
from colosim.engine import Trace
from colosim.equivalence import (
    BATCH_SIZE,
    DATASET_SIZE,
    DIM,
    MAX_WORKERS,
    LossKind,
    SgdConfig,
    check_neutrality,
    initial_parameters,
    loss_gradient,
    make_dataset,
)
from colosim.errors import ConfigError
from colosim.scheduler import Policy, SchedulePlan, simulate
from colosim.workload import JobProfile

import oracles
from oracles import (TrainingState, averaged_gradient_reference, batch_indices_reference,
                     finite_difference_gradient, initial_state, loss_value, replay_reference,
                     run_isolated, sgd_step)

# sha256 over the parameter bytes of every state each job reaches along the
# CLI cell's trace, then of oracles.run_isolated per job, for each cell of the CLI
# grid at seeds 0, 5 and 123 with 60 iterations; see _grid_digest for the
# order.
GRID_DIGEST = "288548fc642b86778283d0063c5f8c7d75c8052dddbc0240377707799d1a7f10"
# The same digest under the per-(seed, iteration, worker) draws that preceded
# draw blocks (_per_iteration_draws), first generated by the hand-written
# rotation that preceded the replay.
PER_ITERATION_GRID_DIGEST = "38ef243ceb6077e70f742bb896df4dccb872c5d26453712d09f9f2ade54a0d67"

# Parameter server at 2e9 B/s: a job's grad_bytes is its sync time in ns.
NS_CLUSTER = ClusterSpec(workers=2, bandwidth_bytes_per_sec=2_000_000_000,
                         architecture=Architecture.PARAMETER_SERVER)


def config(loss=LossKind.LEAST_SQUARES, seed=7, rng_seed=0):
    return SgdConfig(loss=loss, dataset_seed=seed, rng_seed=rng_seed)


def crossover_plan(*budgets, workers=NS_CLUSTER.workers):
    """One job per budget; each sync (5 ns) outlasts its compute (3 ns)."""
    return SchedulePlan(Policy.CROSSOVER,
                        tuple(JobProfile(f"j{i}", 1, 2, 5, iterations)
                              for i, iterations in enumerate(budgets)),
                        replace(NS_CLUSTER, workers=workers))


def replayed(configs, plan):
    """Each job's replay lane along ``simulate(plan)``, whose row m is its parameters
    after m updates."""
    workers = [plan.cluster.workers] * len(configs)
    return equivalence._train(configs, workers, equivalence._replay_reads(configs, plan))


@st.composite
def replay_cases(draw, workers=st.integers(1, 4)):
    """Configs and a small plan of 1-3 jobs with unequal budgets, either policy."""
    budgets = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    jobs = tuple(JobProfile(f"j{i}", draw(st.integers(0, 3)), draw(st.integers(1, 3)),
                            draw(st.integers(0, 12)), iterations)
                 for i, iterations in enumerate(budgets))
    plan = SchedulePlan(draw(st.sampled_from(Policy)), jobs,
                        replace(NS_CLUSTER, workers=draw(workers)))
    configs = [config(draw(st.sampled_from(LossKind)), draw(st.integers(0, 99)),
                      draw(st.integers(0, 99))) for _ in jobs]
    return configs, plan


@st.composite
def cell_mixes(draw):
    """Two or three ``replay_cases`` at each of 1, 2 and 4 workers, in any order."""
    cells = [draw(replay_cases(workers=st.just(workers)))
             for workers in (1, 2, 4) for _ in range(draw(st.integers(2, 3)))]
    return draw(st.permutations(cells))


@st.composite
def lane_mixes(draw):
    """1-4 ``_train`` lanes: any config, 1 to ``MAX_WORKERS`` workers, 1-40
    updates, and update k reading any state up to k - 1."""
    lanes = []
    for _ in range(draw(st.integers(1, 4))):
        cfg = config(draw(st.sampled_from(LossKind)), draw(st.integers(0, 99)),
                     draw(st.integers(0, 99)))
        workers = draw(st.sampled_from([1, 2, 4, MAX_WORKERS]) | st.integers(1, MAX_WORKERS))
        reads = [draw(st.integers(0, k)) for k in range(draw(st.integers(1, 40)))]
        lanes.append((cfg, workers, reads))
    return lanes


def check_cells(cells):
    """``_check_cells(cells)``, and the lanes each cell's report compared, in cell order."""
    compared = []
    real = equivalence._compare

    def spy(trajectories):
        compared.append(trajectories)
        return real(trajectories)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_compare", spy)
        return equivalence._check_cells(cells), compared


def early_starts(data, rows):
    """``rows`` with up to 3 computes moved to start before their job's previous sync ends."""
    for k in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3), label="early"):
        previous = [row for row in rows[:k] if row[0] == rows[k][0]]
        if previous:
            start = data.draw(st.integers(0, previous[-1][6] - 1))
            rows[k] = (*rows[k][:2], start, *rows[k][3:])
    return rows


def stack_of_batches(rng, workers, batch, dim):
    """A random (workers, batch, dim) stack and (workers, batch) targets."""
    return rng.standard_normal((workers, batch, dim)), rng.standard_normal((workers, batch))


class TestLossGradient:
    """loss_gradient takes a stack of worker batches, (workers, batch, dim)."""

    def test_zero_at_exact_solution(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 10, 5))
        w = rng.standard_normal(5)
        y = x @ w  # consistent targets: w is the exact optimum
        grad = loss_gradient(False, w, x, y)
        assert np.array_equal(grad, np.zeros(5))

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_matches_finite_differences(self, loss):
        # loss_value averages over every row of the stack, so this also
        # checks the averaging over the 3 workers
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 10, 6))
        y = (x @ rng.standard_normal(6)
             if loss is LossKind.LEAST_SQUARES
             else (rng.standard_normal((3, 10)) > 0).astype(np.float64))
        for _ in range(20):
            params = rng.standard_normal(6)
            analytic = loss_gradient(loss is LossKind.LOGISTIC, params, x, y)
            numeric = finite_difference_gradient(
                lambda p: loss_value(loss, p, x, y), params)
            rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
            assert rel < 1e-6

    def test_duplicating_points_keeps_mean_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal(16)
        params = rng.standard_normal(4)
        once = loss_gradient(False, params, x[None], y[None])
        twice = loss_gradient(False, params,
                              np.vstack([x, x])[None], np.concatenate([y, y])[None])
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_gradient(False, np.zeros(3),
                          np.zeros((1, 4, 2)), np.zeros((1, 4)))


class TestAverageGradients:
    """The averaging over workers inside loss_gradient."""

    def test_identical_vectors(self):
        # identical worker batches give the one-batch gradient; small integer
        # data keeps every sum exact, so the mean of 3 copies is exact too
        x = np.array([[1.0, -2.0, 0.0], [3.0, 1.0, -1.0], [0.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        y = np.array([2.0, -1.0, 0.0, 3.0])
        params = np.array([1.0, 0.0, -1.0])
        one = loss_gradient(False, params, x[None], y[None])
        assert np.array_equal(one, x.T @ (x @ params - y) / 4)
        assert np.array_equal(loss_gradient(False, params,
                                            np.stack([x, x, x]), np.stack([y, y, y])), one)

    def test_single_worker_identity(self):
        # a one-worker stack's gradient is that batch's own mean gradient
        rng = np.random.default_rng(4)
        x, y = stack_of_batches(rng, 1, BATCH_SIZE, DIM)
        params = rng.standard_normal(DIM)
        want = x[0].T @ (x[0] @ params - y[0]) / BATCH_SIZE
        assert np.array_equal(loss_gradient(False, params, x, y), want)

    def test_mean_of_basis_vectors(self):
        # worker k's one row e_k, at zero parameters with target -1, has
        # gradient e_k
        stack = np.eye(4)[:, None, :]
        got = loss_gradient(False, np.zeros(4), stack, -np.ones((4, 1)))
        assert np.array_equal(got, np.full(4, 0.25))

    def test_length_mismatch(self):
        for x_shape, y_shape in [
            ((2, 4, 3), (2, 5)),   # targets per worker differ from rows
            ((2, 4, 3), (3, 4)),   # targets for another worker count
            ((2, 4, 2), (2, 4)),   # rows of another dimension
            ((8, 3), (8,)),        # one batch, not a stack
        ]:
            with pytest.raises(ValueError):
                loss_gradient(False, np.zeros(3),
                              np.zeros(x_shape), np.zeros(y_shape))

    @settings(deadline=None)
    @given(workers=st.integers(1, 12), batch=st.integers(1, 20), dim=st.integers(1, 10),
           seed=st.integers(0, 2**32), loss=st.sampled_from(LossKind))
    def test_matches_a_per_worker_loop(self, workers, batch, dim, seed, loss):
        # bit for bit: the batching changes no operation and no summation order
        rng = np.random.default_rng(seed)
        x, y = stack_of_batches(rng, workers, batch, dim)
        params = rng.standard_normal(dim)
        assert np.array_equal(loss_gradient(loss is LossKind.LOGISTIC, params, x, y),
                              averaged_gradient_reference(loss, params, x, y))

    @settings(deadline=None)
    @given(logistic=st.lists(st.booleans(), min_size=1, max_size=6), workers=st.integers(1, 6),
           batch=st.integers(1, 20), dim=st.integers(1, 10), seed=st.integers(0, 2**32))
    def test_each_lane_has_the_bits_of_its_own_stack(self, logistic, workers, batch, dim, seed):
        rng = np.random.default_rng(seed)
        lanes = len(logistic)
        x, y = stack_of_batches(rng, lanes * workers, batch, dim)
        x, y = x.reshape(lanes, workers, batch, dim), y.reshape(lanes, workers, batch)
        params = rng.standard_normal((lanes, dim))
        together = loss_gradient(np.array(logistic)[:, None, None], params, x, y)
        for lane, kind in enumerate(logistic):
            alone = loss_gradient(kind, params[lane], x[lane], y[lane])
            assert together[lane].tobytes() == alone.tobytes()

    def test_fixed_order_is_bit_stable(self):
        rng = np.random.default_rng(9)
        x, y = stack_of_batches(rng, 5, BATCH_SIZE, DIM)
        params = rng.standard_normal(DIM)
        for loss in LossKind:
            a = loss_gradient(loss is LossKind.LOGISTIC, params, x, y)
            b = loss_gradient(loss is LossKind.LOGISTIC, params.copy(), x.copy(), y.copy())
            assert np.array_equal(a, b)


class TestSgdStep:
    """The reference runs' update, ``oracles.sgd_step``."""

    def test_zero_gradient_keeps_parameters(self):
        state = initial_state(config(rng_seed=1))
        stepped = sgd_step(state, np.zeros(DIM))
        assert np.array_equal(stepped.parameters, state.parameters)
        assert stepped.iteration == 1

    def test_arithmetic(self):
        # learning rate 0.05
        state = TrainingState(np.ones(DIM), 0)
        stepped = sgd_step(state, np.tile([1.0, -1.0], DIM // 2))
        assert np.array_equal(stepped.parameters, np.tile([0.95, 1.05], DIM // 2))

    def test_shape_mismatch(self):
        state = initial_state(config(rng_seed=1))
        with pytest.raises(ValueError):
            sgd_step(state, np.zeros(3))


class TestRunIsolated:
    """The isolated reference trajectory (``oracles.run_isolated``)."""

    def test_one_iteration_is_one_averaged_step(self):
        cfg = config(rng_seed=4)  # least squares
        state = initial_state(cfg)
        x, y = make_dataset(cfg)
        total = np.zeros(DIM)
        for w in range(3):
            idx = batch_indices_reference(4, 1, w, DATASET_SIZE, BATCH_SIZE)
            xw, yw = x[idx], y[idx]
            total = total + xw.T @ (xw @ state.parameters - yw) / BATCH_SIZE
        expected = sgd_step(state, total / 3)
        trajectory = run_isolated(cfg, 3, 1)
        assert len(trajectory) == 1
        assert np.array_equal(trajectory[0].parameters, expected.parameters)

    def test_deterministic_across_runs(self):
        a = run_isolated(config(rng_seed=2), 2, 20)
        b = run_isolated(config(rng_seed=2), 2, 20)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.parameters, sb.parameters)

    def test_least_squares_loss_decreases(self):
        cfg = config(seed=13, rng_seed=3)
        x, y = make_dataset(cfg)
        trajectory = run_isolated(cfg, 2, 40)
        losses = [loss_value(cfg.loss, initial_state(cfg).parameters, x, y)]
        losses += [loss_value(cfg.loss, s.parameters, x, y) for s in trajectory]
        assert losses[-1] < losses[0]
        assert all(b <= a for a, b in zip(losses, losses[1:]))


class TestRunCrossover:
    """The interleaved run: each job's replay lane along simulate's rows."""

    def test_single_job_degenerates_to_isolated(self):
        cfg = config(rng_seed=6)
        plan = crossover_plan(25)
        (crossed,) = replayed([cfg], plan)
        isolated = run_isolated(cfg, plan.cluster.workers, 25)
        assert len(crossed) == len(isolated) + 1
        assert np.array_equal(crossed[0], initial_parameters(cfg))
        for a, b in zip(isolated, crossed[1:]):
            assert np.array_equal(a.parameters, b)

    def test_two_heterogeneous_jobs_match_isolated_exactly(self):
        cfgs = [config(LossKind.LEAST_SQUARES, seed=21, rng_seed=1),
                config(LossKind.LOGISTIC, seed=22, rng_seed=2)]
        report = check_neutrality(cfgs, crossover_plan(100, 100, workers=4))
        assert report.first_divergence is None
        assert report.max_abs_deviation == 0.0

    def test_job_order_is_irrelevant(self):
        cfg_a = config(LossKind.LEAST_SQUARES, seed=31, rng_seed=5)
        cfg_b = config(LossKind.LOGISTIC, seed=32, rng_seed=6)
        fwd = replayed([cfg_a, cfg_b], crossover_plan(30, 30))
        rev = replayed([cfg_b, cfg_a], crossover_plan(30, 30))
        assert fwd[0].shape == rev[1].shape == fwd[1].shape == rev[0].shape == (31, DIM)
        assert fwd[0].tobytes() == rev[1].tobytes()
        assert fwd[1].tobytes() == rev[0].tobytes()

    def test_trajectory_lengths(self):
        # the initial parameters, then one row per update
        trajs = replayed([config(seed=1, rng_seed=0), config(seed=2, rng_seed=1)],
                         crossover_plan(7, 4))
        assert [t.shape for t in trajs] == [(8, DIM), (5, DIM)]

    def test_states_are_read_only_views_of_one_trajectory(self):
        lanes = replayed([config(rng_seed=2), config(rng_seed=3)], crossover_plan(6, 4))
        with pytest.raises(ValueError):
            lanes[0][2, 0] = 0.0
        base = lanes[0].base
        assert base is not None and all(lane.base is base for lane in lanes)

    @settings(max_examples=80, deadline=None)
    @given(case=replay_cases(), data=st.data())
    def test_matches_a_scalar_fifo_replay(self, case, data):
        # bit for bit, on the schedule's rows and on rows where some computes
        # start before the job's previous sync ends: _check_cells' replay
        # lanes against replay_reference's states, grouped by job in landing
        # order
        configs, plan = case
        rows = early_starts(data, list(simulate(plan).rows))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equivalence, "simulate", lambda _: Trace(tuple(rows)))
            _, (lanes,) = check_cells([(configs, plan)])
        want = [[] for _ in configs]
        for j, state in replay_reference(configs, plan, rows):
            assert state.iteration == len(want[j]) + 1
            want[j].append(state.parameters)
        for cfg, lane, states in zip(configs, lanes[:len(configs)], want):
            assert lane[0].tobytes() == initial_parameters(cfg).tobytes()
            assert lane[1:].tobytes() == b"".join(p.tobytes() for p in states)


def _nudged(t):
    """The trajectory with row 3's coordinate 0 moved up by one ulp."""
    t[3, 0] = np.nextafter(t[3, 0], np.inf)
    return t


# Broken edits of job 0's replayed trajectory (a writable copy whose row m
# holds the parameters after m updates), each with the iteration
# check_neutrality must name for a 5-iteration run, and whether a compared
# row differs.
TRAJECTORY_MUTANTS = {
    "skips_final_drain": (lambda t: t[:-1], 5, False),
    "extra_state": (lambda t: np.vstack([t, t[-1:]]), 6, False),
    "drops_a_middle_state": (lambda t: np.delete(t, 3, axis=0), 3, True),
    "repeats_a_state": (lambda t: np.vstack([t[:3], t[2:-1]]), 3, True),
    "one_ulp_nudge": (_nudged, 3, True),
}


def _early_start(job_id, iteration):
    """Rows edit: that row's compute starts 1 ns before its previous sync ends."""
    def edit(rows):
        sync_end = {}
        for k, row in enumerate(rows):
            if row[:2] == (job_id, iteration):
                rows[k] = (*row[:2], sync_end[job_id] - 1, *row[3:])
            sync_end[row[0]] = row[6]
        return rows
    return edit


class TestCheckNeutrality:
    @pytest.fixture
    def mutate(self, monkeypatch):
        """Edit lane 0 of every ``_train`` call: job 0's replayed trajectory.

        ``check_neutrality`` trains one cell per call.  Through the CLI, one
        call trains every cell, so only the first cell (jobs=1 workers=1) is
        edited.
        """
        def install(edit):
            real = equivalence._train

            def edited(configs, workers, reads):
                trajectories = real(configs, workers, reads)
                return [edit(trajectories[0].copy()), *trajectories[1:]]
            monkeypatch.setattr(equivalence, "_train", edited)
        return install

    @pytest.fixture
    def mutate_rows(self, monkeypatch):
        def install(edit):
            real = equivalence.simulate

            def edited(plan):
                trace = real(plan)
                return Trace(tuple(edit(list(trace.rows))))
            monkeypatch.setattr(equivalence, "simulate", edited)
        return install

    def test_reads_the_blocks_and_builds_no_rows(self, expansions, capsys):
        assert cli.main(["equivalence", "--iters", "5"]) == cli.EXIT_OK
        report = check_neutrality(cli._equiv_configs(3, 2, 0), cli._equiv_plan(3, 2, 5))
        assert report.first_divergence is None
        assert expansions == []

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_MUTANTS))
    def test_broken_trajectory_is_a_divergence(self, mutate, name):
        edit, iteration, deviates = TRAJECTORY_MUTANTS[name]
        mutate(edit)
        report = check_neutrality([config(seed=51, rng_seed=0), config(seed=52, rng_seed=1)],
                                  crossover_plan(5, 5))
        assert report.first_divergence == (0, iteration, 0)
        # A row past the shorter trajectory is never compared, so a skipped
        # or extra final state has no deviation.
        assert (report.max_abs_deviation > 0.0) == deviates

    def test_cli_fails_on_a_skipped_final_drain(self, mutate, capsys):
        mutate(TRAJECTORY_MUTANTS["skips_final_drain"][0])
        assert cli.main(["equivalence", "--iters", "5"]) == cli.EXIT_EQUIVALENCE == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.out.splitlines()[-1] == "max absolute trajectory deviation: 0"
        assert captured.err == ("FAIL: trajectories diverge at jobs=1 workers=1 "
                                "job_index=0 iteration=5 coordinate=0\n")

    @pytest.mark.parametrize("job, iteration", [(0, 2), (1, 3), (2, 5)])
    def test_compute_before_previous_sync_ends_diverges(self, mutate_rows, job, iteration):
        mutate_rows(_early_start(f"job{job}", iteration))
        report = check_neutrality(cli._equiv_configs(3, 2, 0), cli._equiv_plan(3, 2, 5))
        assert report.first_divergence[:2] == (job, iteration)
        assert report.max_abs_deviation > 0.0

    def test_dropped_final_row_is_a_divergence(self, mutate_rows):
        mutate_rows(lambda rows: rows[:-1])
        report = check_neutrality(cli._equiv_configs(3, 2, 0), cli._equiv_plan(3, 2, 5))
        assert report.first_divergence == (2, 5, 0)

    @settings(max_examples=80, deadline=None)
    @given(case=replay_cases(), data=st.data())
    def test_matches_a_per_state_comparison(self, case, data):
        # on rows with early starts, and with a dropped or a duplicated row,
        # so some trajectories are shorter or longer than their budget
        configs, plan = case
        rows = early_starts(data, list(simulate(plan).rows))
        if data.draw(st.booleans(), label="drop"):
            del rows[data.draw(st.integers(0, len(rows) - 1), label="dropped")]
        if rows and data.draw(st.booleans(), label="duplicate"):
            k = data.draw(st.integers(0, len(rows) - 1), label="duplicated")
            rows.insert(data.draw(st.integers(k, len(rows)), label="at"), rows[k])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equivalence, "simulate", lambda _: Trace(tuple(rows)))
            report = check_neutrality(configs, plan)
        assert ((report.max_abs_deviation, report.first_divergence)
                == oracles.neutrality_reference(configs, plan, rows))

    def test_unequal_budgets_pass(self):
        configs = cli._equiv_configs(3, 2, 0)
        plan = crossover_plan(3, 10, 7)
        assert check_neutrality(configs, plan).first_divergence is None
        assert [len(t) - 1 for t in replayed(configs, plan)] == [3, 10, 7]


@st.composite
def budget_plans(draw):
    """A plan of 2-4 jobs with unequal budgets of up to 60 iterations, either policy."""
    budgets = draw(st.lists(st.integers(1, 60), min_size=2, max_size=4, unique=True))
    jobs = tuple(JobProfile(f"j{i}", draw(st.integers(0, 3)), draw(st.integers(1, 3)),
                            draw(st.integers(0, 12)), iterations)
                 for i, iterations in enumerate(budgets))
    return SchedulePlan(draw(st.sampled_from(Policy)), jobs, NS_CLUSTER)


def _configs(plan):
    return [config(rng_seed=j) for j in range(len(plan.jobs))]


def _shifted(rows, rounds, shift):
    """``rows`` moved ``rounds`` rounds on: iterations plus rounds, times plus rounds x shift."""
    return tuple((row[0], row[1] + rounds, *(x + rounds * shift for x in row[2:]))
                 for row in rows)


def _paired(blocks, b):
    """``blocks`` with block b's rounds taken two at a time: the same rows,
    from a block whose round holds each job twice."""
    rows, shift, repeats = blocks[b]
    rounds = repeats + 1
    paired = [(rows + _shifted(rows, 1, shift), 2 * shift, rounds // 2 - 1)]
    if rounds % 2:
        paired.append((_shifted(rows, rounds - 1, shift), 0, 0))
    return (*blocks[:b], *paired, *blocks[b + 1:])


def _early_copies(blocks, b, i, lag, early=1):
    """``blocks`` with row i of block b's round starting ``lag`` shifts and
    ``early`` ns before its own sync ends.

    In each copy the row then starts before the job's sync of ``lag`` copies
    earlier ends.  With ``lag`` at least the block's repeats, no sync the
    block queues for that job lands within the block, so the job's queue
    grows by one a copy and the state never repeats.
    """
    rows, shift, repeats = blocks[b]
    row = rows[i]
    rows = (*rows[:i], (*row[:2], row[6] - lag * shift - early, *row[3:]), *rows[i + 1:])
    return (*blocks[:b], (rows, shift, repeats), *blocks[b + 1:])


@contextmanager
def counted_steps():
    """The shift of each ``_step`` call within: one per round or copy read row by row."""
    calls = []
    real = equivalence._step

    def counting(rows, shift, *state):
        calls.append(shift)
        return real(rows, shift, *state)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_step", counting)
        yield calls


def read_blocks(plan, blocks):
    """``_replay_reads`` of ``plan`` with ``simulate`` returning ``blocks``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "simulate", lambda _: Trace._of(blocks, plan))
        return equivalence._replay_reads(_configs(plan), plan)


class TestReplayReads:
    """``_replay_reads`` steps a block's round and first copy, and extends the rest."""

    @settings(max_examples=150, deadline=None)
    @given(plan=budget_plans())
    def test_matches_a_row_at_a_time_reader(self, plan):
        trace = simulate(plan)
        with counted_steps() as steps:
            got = equivalence._replay_reads(_configs(plan), plan)
        assert got == oracles.replay_reads_reference(plan, trace.rows)
        # each job's sync has landed by its next start, so no copy falls back
        assert len(steps) == sum(1 + bool(repeats) for _, _, repeats in trace.blocks)

    @settings(max_examples=150, deadline=None)
    @given(plan=budget_plans(), data=st.data())
    def test_matches_a_row_at_a_time_reader_when_a_round_does_not_repeat(self, plan, data):
        blocks = simulate(plan).blocks
        repeated = [b for b, (_, _, repeats) in enumerate(blocks) if repeats]
        assume(repeated)
        b = data.draw(st.sampled_from(repeated), label="block")
        if data.draw(st.booleans(), label="paired"):
            blocks = _paired(blocks, b)
        rows, _, repeats = blocks[b]
        edited = _early_copies(blocks, b, data.draw(st.integers(0, len(rows) - 1), label="row"),
                               data.draw(st.integers(0, repeats + 1), label="lag"),
                               data.draw(st.integers(1, 5), label="early"))
        assert read_blocks(plan, edited) == oracles.replay_reads_reference(
            plan, Trace._of(edited, plan).rows)

    def test_a_round_whose_queues_grow_is_stepped_copy_by_copy(self):
        plan = cli._equiv_plan(2, 2, 20)
        _, shift, repeats = simulate(plan).blocks[1]
        blocks = _early_copies(simulate(plan).blocks, 1, 0, repeats)
        with counted_steps() as steps:
            got = read_blocks(plan, blocks)
        assert got == oracles.replay_reads_reference(plan, Trace._of(blocks, plan).rows)
        # the first block's round, then the second's and each of its copies
        assert steps == [0, 0, *(k * shift for k in range(1, repeats + 1))]

    def test_steps_at_most_a_round_and_its_first_copy_per_block(self):
        plan = cli._equiv_plan(3, 4, 10**4)
        blocks = simulate(plan).blocks
        with counted_steps() as steps:
            reads = equivalence._replay_reads(cli._equiv_configs(3, 4, 0), plan)
        assert len(steps) <= sum(1 + bool(repeats) for _, _, repeats in blocks) == 3
        assert reads == oracles.replay_reads_reference(plan, simulate(plan).rows)


class TestCheckCells:
    """Cells that share a worker count train together, and each is reported as if alone."""

    @settings(max_examples=40, deadline=None)
    @given(cells=cell_mixes(), data=st.data())
    def test_each_cell_is_checked_as_if_alone(self, cells, data):
        rows = {id(plan): early_starts(data, list(simulate(plan).rows)) for _, plan in cells}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equivalence, "simulate", lambda plan: Trace(tuple(rows[id(plan)])))
            reports, lanes = check_cells(cells)
            assert reports == [check_neutrality(*cell) for cell in cells]
            alone = [check_cells([cell])[1][0] for cell in cells]
        for trajectories, own in zip(lanes, alone):
            assert [t.tobytes() for t in trajectories] == [t.tobytes() for t in own]

    @settings(max_examples=40, deadline=None)
    @given(lanes=lane_mixes())
    def test_lanes_of_mixed_worker_counts_train_as_if_alone(self, lanes):
        configs, workers, reads = (list(field) for field in zip(*lanes))
        together = equivalence._train(configs, workers, reads)
        for trajectory, (cfg, w, lane_reads) in zip(together, lanes):
            (alone,) = equivalence._train([cfg], [w], [lane_reads])
            assert trajectory.shape == alone.shape == (len(lane_reads) + 1, DIM)
            assert trajectory.tobytes() == alone.tobytes()

    def test_the_cli_grid_trains_in_one_call(self, monkeypatch, capsys):
        calls = []
        real = equivalence._train

        def counted(configs, workers, reads):
            calls.append(list(workers))
            return real(configs, workers, reads)
        monkeypatch.setattr(equivalence, "_train", counted)
        assert cli.main(["equivalence", "--iters", "5"]) == cli.EXIT_OK
        # the replay and isolated lanes of every cell, in grid order, each
        # with its cell's worker count: 2 x (1 + 2 + 3) x 3 = 36 lanes
        assert calls == [[workers for n_jobs in cli._EQUIV_JOB_COUNTS
                          for workers in cli._EQUIV_WORKER_COUNTS for _ in range(2 * n_jobs)]]
        assert len(calls[0]) == 36

    @pytest.mark.parametrize("n_jobs, workers, job", [
        (n_jobs, workers, job) for n_jobs in cli._EQUIV_JOB_COUNTS
        for workers in cli._EQUIV_WORKER_COUNTS for job in range(n_jobs)])
    def test_a_one_ulp_edit_is_reported_in_its_cell_only(self, monkeypatch, capsys,
                                                         n_jobs, workers, job):
        # Every cell trains in one call, in grid order, each cell's replay
        # lanes before its isolated lanes.
        grid = [(n, w) for n in cli._EQUIV_JOB_COUNTS for w in cli._EQUIV_WORKER_COUNTS]
        lane = sum(2 * n for n, _ in grid[:grid.index((n_jobs, workers))]) + job
        real = equivalence._train

        def edited(configs, call_workers, reads):
            trajectories = real(configs, call_workers, reads)
            trajectories[lane] = _nudged(trajectories[lane].copy())
            return trajectories
        monkeypatch.setattr(equivalence, "_train", edited)
        assert cli.main(["equivalence", "--iters", "5"]) == cli.EXIT_EQUIVALENCE
        captured = capsys.readouterr()
        deviating = [line for line in captured.out.splitlines()
                     if line.startswith("jobs=") and not line.endswith("deviation 0")]
        assert [line.split(" iters=")[0] for line in deviating] == [
            f"jobs={n_jobs} workers={workers}"]
        assert captured.err == (f"FAIL: trajectories diverge at jobs={n_jobs} "
                                f"workers={workers} job_index={job} iteration=3 coordinate=0\n")


def _grid_digest(seeds=(0, 5, 123), iterations=60) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for n_jobs in cli._EQUIV_JOB_COUNTS:
            for workers in cli._EQUIV_WORKER_COUNTS:
                configs = cli._equiv_configs(n_jobs, workers, seed)
                plan = cli._equiv_plan(n_jobs, workers, iterations)
                for trajectory in replayed(configs, plan):
                    h.update(trajectory[1:].tobytes())
                for cfg in configs:
                    for state in run_isolated(cfg, workers, iterations):
                        h.update(state.parameters.tobytes())
    return h.hexdigest()


def test_cli_grid_trajectories_are_pinned():
    assert _grid_digest() == GRID_DIGEST


def test_grouped_cli_grid_trajectories_are_pinned():
    # the same digest from the lanes _check_cells trains, every cell in one
    # call: each cell's replayed, then its isolated trajectories, every state
    # after the initial one
    h = hashlib.sha256()
    for seed in (0, 5, 123):
        cells = [(cli._equiv_configs(n_jobs, workers, seed), cli._equiv_plan(n_jobs, workers, 60))
                 for n_jobs in cli._EQUIV_JOB_COUNTS for workers in cli._EQUIV_WORKER_COUNTS]
        reports, lanes = check_cells(cells)
        assert all(report.first_divergence is None for report in reports)
        for trajectories in lanes:
            for trajectory in trajectories:
                h.update(trajectory[1:].tobytes())
    assert h.hexdigest() == GRID_DIGEST


def _per_iteration_draw(rng_seed, iteration, worker):
    """The earlier draws: a fresh generator per (seed, iteration, worker)."""
    return np.random.default_rng([rng_seed, 1, iteration, worker]).integers(
        0, DATASET_SIZE, size=BATCH_SIZE)


def test_replay_is_unchanged_under_per_iteration_draws(monkeypatch):
    # Only the draws changed when blocks replaced per-iteration generators:
    # with the earlier draws, in the package and in the reference runs, the
    # grid reproduces the digest pinned before.
    monkeypatch.setattr(equivalence, "_draw_block", lambda rng_seed, block, worker: np.stack([
        _per_iteration_draw(rng_seed, 16 * block + row + 1, worker) for row in range(16)]))
    monkeypatch.setattr(oracles, "batch_indices_reference",
                        lambda rng_seed, iteration, worker, *_: _per_iteration_draw(
                            rng_seed, iteration, worker))
    assert _grid_digest() == PER_ITERATION_GRID_DIGEST


def clear_draws():
    equivalence._draw_block.cache_clear()


# Iterations on both sides of the first block edges, then any iteration.
ITERATIONS = st.sampled_from([1, 15, 16, 17, 31, 32, 33, 48, 49]) | st.integers(1, 200)


class TestBatchDraws:
    """Each worker's mini-batches are rows of a cached, read-only block of
    16 iterations (``_draw_block``); nothing derived from them is cached."""

    @given(rng_seed=st.integers(0, 2**32),
           keys=st.lists(st.tuples(ITERATIONS, st.integers(0, 5)), min_size=1, max_size=12))
    def test_cached_draws_match_a_fresh_generator(self, rng_seed, keys):
        for _ in range(2):  # the second pass starts from an empty cache
            for iteration, worker in keys * 2:
                block, row = divmod(iteration - 1, 16)
                got = equivalence._draw_block(rng_seed, block, worker)[row]
                want = batch_indices_reference(rng_seed, iteration, worker,
                                               DATASET_SIZE, BATCH_SIZE)
                assert got.shape == (BATCH_SIZE,)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            clear_draws()

    def test_returned_draw_is_read_only(self):
        block = equivalence._draw_block(3, 1, 2)
        with pytest.raises(ValueError):
            block[0, 0] = 0
        assert np.array_equal(block[0], batch_indices_reference(3, 17, 2, 128, 16))

    def test_shared_dataset_is_read_only(self):
        x, y = make_dataset(config(seed=71))
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
        with pytest.raises(ValueError):
            y[0] = 0.0

    def test_each_draw_is_made_once_and_shared_by_both_runs(self):
        clear_draws()
        plan = crossover_plan(20, 20, workers=3)
        report = check_neutrality([config(seed=61, rng_seed=8),
                                   config(seed=62, rng_seed=9)], plan)
        assert report.first_divergence is None
        blocks = equivalence._draw_block.cache_info()
        # two job seeds x two blocks per 20-iteration job x three workers
        assert blocks.misses == blocks.currsize == 2 * 2 * 3
        # Each run asks once per job, block and worker.
        assert blocks.hits == 2 * blocks.misses - blocks.misses

    def test_reuse_holds_past_the_cache_size(self):
        # 640 distinct worker blocks (5 job seeds x 2 blocks of 32 iterations
        # x 64 workers), more than the cache holds, and an iteration's 320
        # are more than it holds too: the two runs of a job ask for a block
        # one after the other, while it is cached.
        assert 5 * 64 > equivalence._CACHE_SIZE
        clear_draws()
        report = check_neutrality(cli._equiv_configs(5, 64, 0), cli._equiv_plan(5, 64, 32))
        assert report.first_divergence is None
        blocks = equivalence._draw_block.cache_info()
        assert blocks.misses == 5 * 2 * 64
        assert blocks.hits == 2 * 5 * 2 * 64 - blocks.misses

    def test_cache_holds_the_default_cli_grid(self, capsys):
        # at the benchmark's size of 60 iterations
        clear_draws()
        assert cli.main(["equivalence", "--iters", "60"]) == cli.EXIT_OK
        blocks = equivalence._draw_block.cache_info()
        # 3 job seeds x 4 blocks of 60 iterations x workers 0-3, each drawn
        # once; every cell asks for each job's blocks of each of its workers
        # twice, once per run.
        assert blocks.misses == blocks.currsize == 3 * 4 * 4 == 48
        lookups = sum(2 * n_jobs * 4 * workers for n_jobs in cli._EQUIV_JOB_COUNTS
                      for workers in cli._EQUIV_WORKER_COUNTS)
        assert blocks.hits == lookups - blocks.misses == 288

    def test_grouping_draws_less_past_the_cache_size(self, capsys):
        # 1000 iterations span 63 blocks: 3 job seeds x 63 blocks x 4 workers
        # = 756 worker blocks, more than the cache holds.  Every cell trains
        # in one call, whose lanes ask for a block's draws together, so each
        # (seed, block, worker) is drawn once; one call per worker count drew
        # 1,255 and cell by cell, the grid made 2,163 draws.
        clear_draws()
        assert cli.main(["equivalence", "--iters", "1000", "--seed", "3"]) == cli.EXIT_OK
        assert equivalence._draw_block.cache_info().misses == 3 * 63 * 4 == 756


@pytest.fixture
def untrained(monkeypatch):
    """``_train`` fails the test if it is called."""
    def fail(*args):
        raise AssertionError("_train called")
    monkeypatch.setattr(equivalence, "_train", fail)


class TestWorkerBound:
    """Replays average at most ``MAX_WORKERS`` workers, and the draws a
    process keeps stay within a budget of 512 KiB."""

    BUDGET = 512 * 2**10

    def test_cli_grid_is_within_the_bound(self):
        assert max(cli._EQUIV_WORKER_COUNTS) <= MAX_WORKERS == 64

    def test_workers_past_the_bound_are_a_config_error(self):
        plan = crossover_plan(2, workers=MAX_WORKERS + 1)
        with pytest.raises(ConfigError, match="at most 64 workers, got 65"):
            check_neutrality([config()], plan)
        report = check_neutrality([config()], crossover_plan(2, workers=MAX_WORKERS))
        assert report.first_divergence is None

    def test_cli_grid_is_within_the_pair_bound(self):
        # 2 lanes per job, (1 + 2 + 3) jobs at each of 1, 2 and 4 workers
        pairs = sum(2 * n_jobs * workers for n_jobs in cli._EQUIV_JOB_COUNTS
                    for workers in cli._EQUIV_WORKER_COUNTS)
        assert pairs == 84 <= equivalence._MAX_PAIRS == 4096

    PAST_THE_BOUND = (r"^the SGD oracle trains at most 4096 \(lane, worker\) pairs at once, "
                      r"got 4224 \(66 lanes\)$")

    def test_pairs_past_the_bound_are_a_config_error_before_training(self, untrained):
        plan = crossover_plan(*[1] * 33, workers=MAX_WORKERS)
        with pytest.raises(ConfigError, match=self.PAST_THE_BOUND):
            check_neutrality([config()] * 33, plan)

    def test_the_pair_bound_covers_every_cell_of_a_call(self, untrained):
        # 4,096 and 128 pairs: each cell is within the bound, but not the two
        cells = [([config()] * n_jobs, crossover_plan(*[1] * n_jobs, workers=MAX_WORKERS))
                 for n_jobs in (32, 1)]
        with pytest.raises(ConfigError, match=self.PAST_THE_BOUND):
            equivalence._check_cells(cells)

    def test_pairs_at_the_bound_train(self):
        plan = crossover_plan(*[1] * 32, workers=MAX_WORKERS)
        configs = [config(seed=j, rng_seed=j) for j in range(32)]
        assert check_neutrality(configs, plan).first_divergence is None
        # 31 jobs and 1 job at 64 workers, two cells of one call
        cells = [(configs[:n_jobs], crossover_plan(*[1] * n_jobs, workers=MAX_WORKERS))
                 for n_jobs in (31, 1)]
        reports = equivalence._check_cells(cells)
        assert [report.first_divergence for report in reports] == [None, None]

    def test_a_full_cache_of_blocks_fits_the_budget(self):
        block = equivalence._draw_block(0, 0, MAX_WORKERS - 1)
        assert block.shape == (16, BATCH_SIZE)
        assert equivalence._CACHE_SIZE * block.nbytes == self.BUDGET

    def test_retained_draws_stay_within_the_budget(self):
        # A replay at the bound with more worker blocks than the cache holds;
        # what it leaves allocated is the cache's blocks, plus their array
        # headers.  A short run first imports and caches everything else it uses.
        cfg = config(seed=81, rng_seed=6)
        assert check_neutrality([cfg], crossover_plan(1, workers=1)).first_divergence is None
        plan = crossover_plan(16 * (equivalence._CACHE_SIZE // MAX_WORKERS + 4),
                              workers=MAX_WORKERS)
        clear_draws()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert check_neutrality([cfg], plan).first_divergence is None
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert equivalence._draw_block.cache_info().currsize == equivalence._CACHE_SIZE
        assert self.BUDGET * 7 // 8 < retained <= self.BUDGET + equivalence._CACHE_SIZE * 1024


class TestConfigValidation:
    def test_one_config_per_job(self):
        with pytest.raises(ConfigError, match=r"^configs: got 1 for 2 jobs, expected one per job$"):
            check_neutrality([config()], crossover_plan(5, 5))

    def test_errors_are_raised_before_training(self, untrained):
        with pytest.raises(ConfigError, match=r"^configs: got 1 for 2 jobs"):
            check_neutrality([config()], crossover_plan(5, 5))
        with pytest.raises(ConfigError, match="at most 64 workers"):
            check_neutrality([config()], crossover_plan(2, workers=MAX_WORKERS + 1))
        # a later cell's error stops every cell of the call
        with pytest.raises(ConfigError, match=r"^configs: got 1 for 2 jobs"):
            equivalence._check_cells([([config()], crossover_plan(5)),
                                      ([config()], crossover_plan(5, 5))])

    def test_run_validation(self):
        with pytest.raises(ValueError):
            check_neutrality([config()], crossover_plan(5, 5))
        with pytest.raises(ValueError):
            check_neutrality([config(), config()], crossover_plan(5))
