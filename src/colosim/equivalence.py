"""Numerical oracle: the co-located schedule does not change SGD trajectories.

The overlapped schedule only reorders *when* each job's synchronization lands
on the wall clock; it never reorders any single job's own compute/update
sequence.  This module makes that claim checkable: it runs synchronous SGD on
seed-generated synthetic problems per job in isolation and along the rows of
``scheduler.simulate``, and the parameter trajectories must be bitwise
identical.  Along the trace, a job applies each pending update whose sync has
ended at a row's ``start``, so a compute that starts before the job's previous
sync ends reads stale parameters and diverges.  The tests show the
comparison failing on edited replayed trajectories, down to one ulp in one
coordinate, and on edited trace rows.

Both runs train in lockstep.  One integer pass over the rows gives each
job's reads: how many of its own updates have landed when each of its
computes starts, and in which order the updates land.  A lane is one run of
one job, and its compute k reads its state after that many updates: the
replay's reads, or k - 1 in isolation.  Iteration k of every lane is one
batched gradient over a ``(lanes, workers, BATCH_SIZE, DIM)`` stack, with
``loss_gradient``'s arithmetic per lane.  Each lane gathers its own batches
and computes its own gradient, so the two lanes of a job share no gathered
batch or gradient.  A lane keeps every state it reaches: ``DIM`` float64s,
so a comparison holds 2 x DIM x 8 = 128 bytes per trace row, less than the
row itself.  ``colosim equivalence`` checks a grid of cells, each a set of
configs and a plan, and the cells that share a worker count train as the
lanes of one lockstep run.  Since no operation mixes lanes, each cell's
report is the one ``check_neutrality`` gives it alone.

Everything is double precision with a fixed left-to-right reduction order so
bit equality is well defined.

Every job trains the same size of problem at the same learning rate
(``DIM``, ``DATASET_SIZE``, ``BATCH_SIZE``, ``LEARNING_RATE``); an
``SgdConfig`` picks only its loss and seeds, and the worker count is that of
the plan's cluster, at most ``MAX_WORKERS``.  A worker's mini-batch is a pure
function of (job seed, iteration, worker index), even for a compute that
reads stale parameters: one generator, keyed by (job seed, block, worker
index), draws that worker's batches for a block of 16 iterations.  Each
worker's block is drawn once per process and shared, read-only, by both
runs, as is each config's synthetic dataset.  Gathered batches, gradients
and anything else derived from the parameters are never cached or shared:
both runs compute every gradient themselves, or the comparison would prove
nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, _a, _check_least, _check_type
from .scheduler import SchedulePlan, simulate

__all__ = [
    "DIM",
    "DATASET_SIZE",
    "BATCH_SIZE",
    "LEARNING_RATE",
    "MAX_WORKERS",
    "LossKind",
    "SgdConfig",
    "TrainingState",
    "replay_trace",
    "NeutralityReport",
    "check_neutrality",
]

# Every job's problem: parameter dimension, dataset rows, rows per worker's
# mini-batch, and the SGD step size.
DIM = 8
DATASET_SIZE = 128
BATCH_SIZE = 16
LEARNING_RATE = 0.05


class LossKind(Enum):
    LEAST_SQUARES = "least_squares"
    LOGISTIC = "logistic_regression"


@dataclass(frozen=True)
class SgdConfig:
    """One job's synthetic training problem.

    ``dataset_seed`` draws the dataset; ``rng_seed`` draws the initial
    parameters and every mini-batch.  ``loss`` must be a ``LossKind`` and
    each seed an exact ``int`` >= 0, or a ``ConfigError`` names the field.
    """

    loss: LossKind
    dataset_seed: int
    rng_seed: int

    def __post_init__(self):
        _check_type("sgd_config.loss", LossKind, self.loss)
        _check_least("sgd_config.", (("dataset_seed", 0), ("rng_seed", 0)),
                     (self.dataset_seed, self.rng_seed))


@dataclass
class TrainingState:
    """Model parameters after ``iteration`` completed updates."""

    parameters: np.ndarray
    iteration: int


@lru_cache(maxsize=128)
def make_dataset(config: SgdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic dataset for the config (cached, read-only)."""
    rng = np.random.default_rng(config.dataset_seed)
    x = rng.standard_normal((DATASET_SIZE, DIM))
    w_true = rng.standard_normal(DIM)
    z = x @ w_true
    if config.loss is LossKind.LEAST_SQUARES:
        y = z
    else:
        y = (z > 0).astype(np.float64)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def initial_state(config: SgdConfig) -> TrainingState:
    rng = np.random.default_rng([config.rng_seed, 0])
    return TrainingState(rng.standard_normal(DIM), 0)


def loss_gradient(logistic: bool | np.ndarray, parameters: np.ndarray,
                  x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Worker-averaged mean gradient of each lane's stack of equal-size worker batches.

    ``x`` is ``(..., workers, batch, dim)``, ``y`` is ``(..., workers, batch)``
    and ``parameters`` is ``(..., dim)``: one stack, or a stack per lane along
    the leading axis.  ``logistic`` picks the loss, logistic where true and
    least squares where false: a ``bool``, or one per lane shaped
    ``(lanes, 1, 1)``.  Per lane, one ``matmul`` gives every worker's
    ``x_w.T @ r_w / batch``; the worker rows are summed left to right and
    divided by the worker count, which for equal batches is the mean gradient
    over every row of the stack.  No operation mixes lanes, so a lane's
    gradient has the bits it would have alone.  The oracle builds the stacks
    from checked configs, so the shapes are not re-checked.
    """
    workers, batch = y.shape[-2:]
    z = (x @ parameters[..., None, :, None])[..., 0]
    residual = np.where(logistic, 0.5 * (1.0 + np.tanh(0.5 * z)) - y, z - y)  # sigmoid(z) - y
    per_worker = (x.swapaxes(-1, -2) @ residual[..., None])[..., 0] / batch
    return np.add.accumulate(per_worker, axis=-2)[..., -1, :] / workers


# Iterations per draw block: one generator per (job seed, block, worker)
# fills that worker's mini-batches for 16 iterations in a row.
_BLOCK = 16

# The most workers a replay averages over, so one lockstep iteration gathers
# at most 64 KiB of batches per lane.
MAX_WORKERS = 64

# Worker blocks kept per process: 256 of 2 KiB (16 x BATCH_SIZE int64
# indices), so retained draws stay within 512 KiB.  The grid of
# ``colosim equivalence --iters 60`` draws 48 (3 job seeds x 4 blocks x 4
# workers), each once.  A grid call trains the lanes of three cells, which
# share each job seed's blocks; lanes that share a job seed ask for a block
# one after the other, so past the cache size a call still draws each block
# once.
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _draw_block(rng_seed: int, block: int, worker: int) -> np.ndarray:
    """Read-only ``(16, BATCH_SIZE)`` indices: one worker's batches for one block."""
    rng = np.random.default_rng([rng_seed, 1, block, worker])
    idx = rng.integers(0, DATASET_SIZE, size=(_BLOCK, BATCH_SIZE))
    idx.setflags(write=False)
    return idx


def _replay_reads(configs: Sequence[SgdConfig],
                  plan: SchedulePlan) -> tuple[list[list[int]], list[int]]:
    """Each job's reads along ``simulate(plan).rows``, and the landing order.

    At a row's start, every pending update of that job whose sync ended by
    then lands, oldest first; after the last row, whatever is still queued.
    ``reads[j][k]`` is how many of job j's updates have landed when its
    compute ``k + 1`` starts, and ``order`` holds the job index of each
    landing in turn.  Raises ``ConfigError`` past ``MAX_WORKERS``, or unless
    ``configs`` is a list or tuple of one ``SgdConfig`` per job and ``plan`` a
    ``SchedulePlan``.
    """
    if type(configs) not in (list, tuple):
        raise ConfigError(f"configs: expected a list or tuple, got {_a(configs)}")
    _check_type("plan", SchedulePlan, plan)
    if len(configs) != len(plan.jobs):
        raise ConfigError(f"configs: got {len(configs)} for {len(plan.jobs)} jobs, "
                          f"expected one per job")
    for i, config in enumerate(configs):
        _check_type(f"configs[{i}]", SgdConfig, config)
    if plan.cluster.workers > MAX_WORKERS:
        raise ConfigError(f"the SGD oracle averages at most {MAX_WORKERS} workers, "
                          f"got {plan.cluster.workers}")
    index = {job.job_id: j for j, job in enumerate(plan.jobs)}
    reads: list[list[int]] = [[] for _ in plan.jobs]
    pending: list[deque[int]] = [deque() for _ in plan.jobs]
    order = []
    for job_id, _, start, *_, sync_end in simulate(plan).rows:
        j = index[job_id]
        queue = pending[j]
        while queue and queue[0] <= start:
            queue.popleft()
            order.append(j)
        reads[j].append(len(reads[j]) - len(queue))
        queue.append(sync_end)
    for j, queue in enumerate(pending):
        order += [j] * len(queue)
    return reads, order


def _train(configs: Sequence[SgdConfig], workers: int,
           reads: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Train lane l as ``configs[l]`` for ``len(reads[l])`` updates, every lane in lockstep.

    Update k of lane l applies the gradient at the lane's state after
    ``reads[l][k - 1]`` updates, which is at most k - 1; the gradient averages
    ``workers`` workers' batches of iteration k.  Iteration k is one
    ``loss_gradient`` call over the lanes that make an update k.  Returns each
    lane's read-only ``(len(reads[l]) + 1, DIM)`` trajectory, whose row m holds
    the parameters after m updates.
    """
    # Longest lanes first, so the lanes that make update k are a prefix; then
    # by job seed, so lanes that share draws ask for them one after the other.
    lanes = sorted(range(len(configs)), key=lambda l: (-len(reads[l]), configs[l].rng_seed))
    counts = [len(reads[l]) for l in lanes]
    # Lane p's trajectory is rows first[p] .. first[p] + counts[p] of states,
    # and sources[first[p] + k] is the row its update k reads.
    first = np.cumsum([0] + [n + 1 for n in counts[:-1]])
    states = np.empty((sum(counts) + len(lanes), DIM))
    sources = np.empty(len(states), dtype=np.intp)
    for p, l in enumerate(lanes):
        states[first[p]] = initial_state(configs[l]).parameters
        sources[first[p] + 1:first[p] + counts[p] + 1] = first[p] + np.asarray(reads[l],
                                                                               dtype=np.intp)
    # Lane p gathers from its own copy of its dataset, rows p * DATASET_SIZE on.
    xs = np.concatenate([make_dataset(configs[l])[0] for l in lanes])
    ys = np.concatenate([make_dataset(configs[l])[1] for l in lanes])
    offsets = DATASET_SIZE * np.arange(len(lanes))[:, None, None, None]
    logistic = np.array([configs[l].loss is LossKind.LOGISTIC for l in lanes])[:, None, None]
    active = len(lanes)
    for k in range(1, counts[0] + 1):
        while counts[active - 1] < k:
            active -= 1
        block, row = divmod(k - 1, _BLOCK)
        if row == 0:
            # (lanes, workers, 16, BATCH_SIZE) dataset rows of the block's iterations
            idx = offsets[:active] + np.array([
                [_draw_block(configs[l].rng_seed, block, w) for w in range(workers)]
                for l in lanes[:active]])
        batch = idx[:active, :, row]
        rows = first[:active] + k
        gradient = loss_gradient(logistic[:active], states[sources[rows]], xs[batch], ys[batch])
        states[rows] = states[rows - 1] - LEARNING_RATE * gradient
    states.setflags(write=False)
    return [states[first[p]:first[p] + counts[p] + 1]
            for p in sorted(range(len(lanes)), key=lanes.__getitem__)]


def _landings(order: Sequence[int],
              trajectories: Sequence[np.ndarray]) -> Iterator[tuple[int, TrainingState]]:
    """``(job index, state)`` per landing in ``order``, a view of the job's trajectory."""
    landed = [0] * len(trajectories)
    for j in order:
        landed[j] += 1
        yield j, TrainingState(trajectories[j][landed[j]], landed[j])


def replay_trace(configs: Sequence[SgdConfig],
                 plan: SchedulePlan) -> Iterator[tuple[int, TrainingState]]:
    """Train ``configs[i]`` as ``plan.jobs[i]`` along ``simulate(plan).rows``.

    Trains when called, and returns an iterator of ``(job index, state)`` as
    each update lands: at a row's start, every pending update of that job
    whose sync ended by then; after the last row, whatever is still queued.
    Each state's ``parameters`` is a read-only view of the job's trajectory.
    Each job averages the gradients of ``plan.cluster.workers`` workers, the
    count its syncs were priced for, and the call raises ``ConfigError`` when
    that is more than ``MAX_WORKERS``, as it does unless ``configs`` holds one
    ``SgdConfig`` per job.
    """
    reads, order = _replay_reads(configs, plan)
    return _landings(order, _train(configs, plan.cluster.workers, reads))


@dataclass(frozen=True)
class NeutralityReport:
    """Outcome of one isolated-vs-interleaved trajectory comparison.

    The trajectories are bitwise equal exactly when ``first_divergence`` is
    None: any nonzero deviation records a divergence.
    """

    max_abs_deviation: float
    first_divergence: tuple[int, int, int] | None  # (job index, iteration, coord)


def check_neutrality(configs: Sequence[SgdConfig], plan: SchedulePlan) -> NeutralityReport:
    """Compare each job's replayed trajectory with its isolated one, bit for bit.

    One lockstep training runs two lanes per job: the replay along
    ``simulate(plan).rows``, and the isolated reference, whose update k reads
    the state after k - 1 updates, for the plan's budget.  Job j's two
    trajectories are compared directly, rows 1 to n in one array operation,
    where n is the shorter one's update count.  Trajectories of unequal
    length diverge at iteration n + 1 (coordinate 0).  The lowest
    (job, iteration) divergence is reported.
    """
    return _check_cells([(configs, plan)])[0]


def _check_cells(cells: Sequence[tuple[Sequence[SgdConfig], SchedulePlan]]
                 ) -> list[NeutralityReport]:
    """``check_neutrality`` of each ``(configs, plan)`` cell, in order.

    Every cell's reads are found, and its inputs checked, before any lane
    trains.  The cells that share a worker count then train in one ``_train``
    call, each cell's replay lanes and then its isolated lanes, cell after
    cell.  No operation mixes lanes, so each trajectory has the bits it has
    when its cell trains alone.
    """
    lanes = []  # per cell: (lane configs, lane reads)
    groups: dict[int, list[int]] = {}  # worker count -> its cells
    for c, (configs, plan) in enumerate(cells):
        reads, _ = _replay_reads(configs, plan)
        isolated = [range(job.iterations) for job in plan.jobs]
        lanes.append(([*configs, *configs], [*reads, *isolated]))
        groups.setdefault(plan.cluster.workers, []).append(c)
    trajectories: list[list[np.ndarray]] = [[] for _ in cells]
    for workers, members in groups.items():
        trained = iter(_train([config for c in members for config in lanes[c][0]], workers,
                              [reads for c in members for reads in lanes[c][1]]))
        for c in members:
            trajectories[c] = [next(trained) for _ in lanes[c][0]]
    return [_compare(t) for t in trajectories]


def _compare(trajectories: Sequence[np.ndarray]) -> NeutralityReport:
    """The report on one cell's lanes: job j's replay is lane j, its reference lane jobs + j."""
    jobs = len(trajectories) // 2
    max_dev = 0.0
    found = []
    for j, (replayed, reference) in enumerate(zip(trajectories[:jobs], trajectories[jobs:])):
        n = min(len(replayed), len(reference)) - 1
        if len(replayed) != len(reference):
            found.append((j, n + 1, 0))
        diff = np.abs(replayed[1:n + 1] - reference[1:n + 1])
        iterations, coords = np.nonzero(diff)
        if len(iterations):
            max_dev = max(max_dev, float(diff.max()))
            found.append((j, int(iterations[0]) + 1, int(coords[0])))
    return NeutralityReport(max_dev, min(found, default=None))
