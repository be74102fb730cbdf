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

Both runs train in lockstep.  One integer pass over the trace's blocks
gives each job's reads: how many of its own updates have landed when each
of its computes starts.  A repeated round costs two rounds of that pass
when its first copy lands as the round did: the shift-invariance that lets
``scheduler._run`` skip rounds then holds for every later copy's landings
too.  A lane is one run of one job with its own worker count, and its
compute k reads its state after that many updates: the replay's reads, or
k - 1 in isolation.  Iteration k of every lane is one batched gradient over
the worker batches of all lanes on one flat (lane, worker) axis, with
``loss_gradient``'s arithmetic per lane; only the sum over a lane's workers
pads the lanes to one worker count, with ``-0.0``, which adds nothing to
any bit.  Each lane gathers its own batches and computes its own gradient,
so the two lanes of a job share no gathered batch or gradient.  A lane
keeps every state it reaches: ``DIM`` float64s, so a comparison holds
2 x DIM x 8 = 128 bytes per trace row, less than the row itself.
``colosim equivalence`` checks a grid of cells, each a set of configs and a
plan, and every cell's lanes train in one lockstep run (``_check_cells``,
which ``check_neutrality`` calls with one cell).  Since no operation mixes
lanes, each cell's report is the one ``check_neutrality`` gives it alone.

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
from typing import Sequence

import numpy as np

from .engine import Row
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


def initial_parameters(config: SgdConfig) -> np.ndarray:
    """The parameters before any update, drawn from ``rng_seed``."""
    rng = np.random.default_rng([config.rng_seed, 0])
    return rng.standard_normal(DIM)


def loss_gradient(logistic: bool | np.ndarray, parameters: np.ndarray,
                  x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Worker-averaged mean gradient of each lane's stack of equal-size worker batches.

    ``x`` is ``(..., workers, batch, dim)``, ``y`` is ``(..., workers, batch)``
    and ``parameters`` is ``(..., dim)``: one stack, or a stack per lane along
    the leading axis.  ``logistic`` picks the loss, logistic where true and
    least squares where false: a ``bool``, or one per lane shaped
    ``(lanes, 1, 1)``.  ``_batch_gradients`` gives every worker's
    ``x_w.T @ r_w / batch``; the worker rows are summed left to right and
    divided by the worker count, which for equal batches is the mean gradient
    over every row of the stack.  No operation mixes lanes, so a lane's
    gradient has the bits it would have alone.  The oracle builds the stacks
    from checked configs, so the shapes are not re-checked.
    """
    workers, _ = y.shape[-2:]
    per_worker = _batch_gradients(logistic, parameters[..., None, :], x, y)
    return np.add.accumulate(per_worker, axis=-2)[..., -1, :] / workers


def _batch_gradients(logistic: bool | np.ndarray, parameters: np.ndarray,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each batch's mean gradient ``x.T @ r / batch``, one ``matmul`` pass per product.

    ``x`` is ``(..., batch, dim)``, ``y`` is ``(..., batch)``, ``parameters``
    is ``(..., dim)`` and ``logistic`` broadcasts against ``y``.
    """
    z = (x @ parameters[..., None])[..., 0]
    residual = np.where(logistic, 0.5 * (1.0 + np.tanh(0.5 * z)) - y, z - y)  # sigmoid(z) - y
    return (x.swapaxes(-1, -2) @ residual[..., None])[..., 0] / y.shape[-1]


# Iterations per draw block: one generator per (job seed, block, worker)
# fills that worker's mini-batches for 16 iterations in a row.
_BLOCK = 16

# The most workers a replay averages over, so one lockstep iteration gathers
# at most 64 KiB of batches per lane.
MAX_WORKERS = 64

# The most (lane, worker) pairs one ``_train`` call steps: 32 jobs' two lanes
# at 64 workers.  Each pair holds about 3 KiB of draws and gathered batches
# at once, so a call stays near 16 MiB (``tracemalloc``: 16 MiB for 32 jobs
# at 64 workers and 16 iterations).  The ``colosim equivalence`` grid makes 84.
_MAX_PAIRS = 4096

# Worker blocks kept per process: 256 of 2 KiB (16 x BATCH_SIZE int64
# indices), so retained draws stay within 512 KiB.  The grid of
# ``colosim equivalence --iters 60`` draws 48 (3 job seeds x 4 blocks x 4
# workers), each once.  The grid trains every cell's lanes in one call, and
# they share each job seed's blocks; lanes that share a job seed ask for a
# block one after the other, so past the cache size the call still draws
# each block once.
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _draw_block(rng_seed: int, block: int, worker: int) -> np.ndarray:
    """Read-only ``(16, BATCH_SIZE)`` indices: one worker's batches for one block."""
    rng = np.random.default_rng([rng_seed, 1, block, worker])
    idx = rng.integers(0, DATASET_SIZE, size=(_BLOCK, BATCH_SIZE))
    idx.setflags(write=False)
    return idx


def _replay_reads(configs: Sequence[SgdConfig], plan: SchedulePlan) -> list[list[int]]:
    """Each job's reads along ``simulate(plan).rows``.

    At a row's start, every pending update of that job whose sync ended by
    then lands, oldest first.  ``reads[j][k]`` is how many of job j's
    updates have landed when its compute ``k + 1`` starts; an update still
    queued after the last row is read by no compute.  The rows are read
    from ``simulate(plan).blocks`` (see ``engine._chunks``), so none is
    built, and a block costs at most two ``_step``s: its round and its first
    copy.  If the first copy leaves the pending syncs of the jobs that have
    rows in the block as the round left them plus the block's shift, every
    later copy starts in the state the one before it did, shifted, so it
    lands exactly as the first copy did: job j's reads are the copy's plus
    ``c`` times its rows per round for the c-th copy after it.  Otherwise
    every copy is stepped.  Only those jobs' queues are compared, since no
    other job's queue moves within the block: a finished job's last sync
    stays queued until the end.  Raises ``ConfigError`` past
    ``MAX_WORKERS``, or unless ``configs`` is a list or tuple of one
    ``SgdConfig`` per job and ``plan`` a ``SchedulePlan``.
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
    for rows, shift, repeats in simulate(plan).blocks:
        _step(rows, 0, index, reads, pending)
        if not repeats:
            continue
        jobs = {index[row[0]] for row in rows}
        queued = {j: [end + shift for end in pending[j]] for j in jobs}
        counts = {j: len(reads[j]) for j in jobs}
        _step(rows, shift, index, reads, pending)
        if any(list(pending[j]) != queued[j] for j in jobs):
            for k in range(2, repeats + 1):
                _step(rows, k * shift, index, reads, pending)
            continue
        # Copy 1 left its jobs' queues as the round left them plus shift, so
        # each later copy starts in the state the one before it did, shifted,
        # and lands as copy 1 did; job j reads n more per copy.
        for j in jobs:
            copy, n = reads[j][counts[j]:], len(reads[j]) - counts[j]
            reads[j] += [r + c for c in range(n, repeats * n, n) for r in copy]
            pending[j] = deque(end + (repeats - 1) * shift for end in pending[j])
    return reads


def _step(rows: Sequence[Row], shift: int, index: dict[str, int], reads: list[list[int]],
          pending: list[deque[int]]) -> None:
    """Read ``rows`` with every time plus ``shift``: land, record the read, queue the sync."""
    for row in rows:
        j = index[row[0]]
        queue = pending[j]
        start = row[2] + shift
        while queue and queue[0] <= start:
            queue.popleft()
        reads[j].append(len(reads[j]) - len(queue))
        queue.append(row[6] + shift)


def _train(configs: Sequence[SgdConfig], workers: Sequence[int],
           reads: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Train lane l as ``configs[l]`` for ``len(reads[l])`` updates, every lane in lockstep.

    Update k of lane l applies the gradient at the lane's state after
    ``reads[l][k - 1]`` updates, which is at most k - 1; the gradient averages
    ``workers[l]`` workers' batches of iteration k.  Iteration k is one
    ``_batch_gradients`` pass over the batches of every lane that makes an
    update k, on one flat (lane, worker) axis.  Each lane's workers are then
    summed left to right by ``np.add.accumulate`` over an ``(lanes, W, DIM)``
    array, ``W`` the most workers of a lane, whose slots past a lane's own
    workers hold ``-0.0``: since ``x + -0.0`` is ``x`` bit for bit, ``+0.0``
    included, the sum has the bits of the lane's unpadded one, as in
    ``loss_gradient``.  Each active lane's state after k - 1 updates, which
    the update steps from, is kept in one array, and the states that every
    lane's gradients read are looked up a draw block of 16 iterations at a
    time.  Returns each lane's read-only
    ``(len(reads[l]) + 1, DIM)`` trajectory, whose row m holds the parameters
    after m updates.
    """
    # Longest lanes first, so the lanes that make update k are a prefix; then
    # by job seed, so lanes that share draws ask for them one after the other.
    lanes = sorted(range(len(configs)), key=lambda l: (-len(reads[l]), configs[l].rng_seed))
    counts = [len(reads[l]) for l in lanes]
    # Lane p's trajectory is rows first[p] .. first[p] + counts[p] of states,
    # and sources[first[p] + k] is the row its update k reads.  A draw
    # block's lookups run up to _BLOCK - 1 rows past a lane's last update,
    # so sources has _BLOCK more rows, which keep the last lane's in bounds.
    first = np.cumsum([0] + [n + 1 for n in counts[:-1]])
    states = np.empty((sum(counts) + len(lanes), DIM))
    sources = np.zeros(len(states) + _BLOCK, dtype=np.intp)
    initial = {}  # rng_seed -> initial parameters, which depend on nothing else
    for p, l in enumerate(lanes):
        seed = configs[l].rng_seed
        if seed not in initial:
            initial[seed] = initial_parameters(configs[l])
        states[first[p]] = initial[seed]
        sources[first[p] + 1:first[p] + counts[p] + 1] = first[p] + np.asarray(reads[l],
                                                                               dtype=np.intp)
    # The flat (lane, worker) axis, lane by lane: lane p's batches are rows
    # ends[p - 1] .. ends[p], and row r of it sums into slot[r] of the
    # padded (lanes x W, DIM) array.
    sizes = np.array([workers[l] for l in lanes])
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(lanes)), sizes)
    width = int(sizes.max())
    slot = owner * width + np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    padded = np.full((len(lanes) * width, DIM), -0.0)
    per_lane = padded.reshape(len(lanes), width, DIM)
    divisors = sizes[:, None]
    # The lanes of one config gather from one copy of its dataset, the d-th
    # distinct one at rows d * DATASET_SIZE on.
    distinct: dict[SgdConfig, int] = {}
    dataset = [distinct.setdefault(configs[l], len(distinct)) for l in lanes]
    xs = np.concatenate([make_dataset(c)[0] for c in distinct])
    ys = np.concatenate([make_dataset(c)[1] for c in distinct])
    offsets = DATASET_SIZE * np.array(dataset)[owner, None, None]
    logistic = np.array([configs[l].loss is LossKind.LOGISTIC for l in lanes])[owner, None]
    # per batch row, its lane's rows of sources for a block's 16 iterations
    reading = first[owner, None] + np.arange(1, _BLOCK + 1)
    latest = states[first]  # each lane's state after its updates so far
    active = len(lanes)
    for k in range(1, counts[0] + 1):
        while counts[active - 1] < k:
            active -= 1
        n = ends[active - 1]
        block, row = divmod(k - 1, _BLOCK)
        if row == 0:
            # (batch rows, 16, BATCH_SIZE) dataset rows of the block's iterations
            idx = np.array([_draw_block(configs[l].rng_seed, block, w)
                            for l in lanes[:active] for w in range(workers[l])])
            idx += offsets[:n]
            # (batch rows, 16) rows of states their gradients read
            read = sources.take(reading[:n] + (k - 1))
        batch = idx[:n, row]
        parameters = states.take(read[:n, row], axis=0)
        padded[slot[:n]] = _batch_gradients(logistic[:n], parameters, xs.take(batch, axis=0),
                                            ys.take(batch))
        summed = np.add.accumulate(per_lane[:active], axis=1)
        latest = latest[:active] - LEARNING_RATE * (summed[:, -1] / divisors[:active])
        states[first[:active] + k] = latest
    states.setflags(write=False)
    return [states[first[p]:first[p] + counts[p] + 1]
            for p in sorted(range(len(lanes)), key=lanes.__getitem__)]


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
    (job, iteration) divergence is reported.  Each job averages the
    gradients of ``plan.cluster.workers`` workers, the count its syncs were
    priced for.  Raises ``ConfigError`` past ``MAX_WORKERS`` workers, past
    ``_MAX_PAIRS`` (lane, worker) pairs (2 lanes per job times the plan's
    workers, so 32 jobs at 64 workers), or unless ``configs`` is a list or
    tuple of one ``SgdConfig`` per job and ``plan`` a ``SchedulePlan``.
    """
    return _check_cells([(configs, plan)])[0]


def _check_cells(cells: Sequence[tuple[Sequence[SgdConfig], SchedulePlan]]
                 ) -> list[NeutralityReport]:
    """``check_neutrality`` of each ``(configs, plan)`` cell, in order.

    Every cell's reads are found by ``_replay_reads``, which checks its
    inputs, and then the (lane, worker) pairs of all cells together are
    checked against ``_MAX_PAIRS``, before any lane trains.  Then every cell
    trains in one ``_train`` call, each lane with its cell's worker count:
    each cell's replay lanes and then its isolated lanes, cell after cell.
    No operation mixes lanes, so each trajectory has the bits it has when
    its cell trains alone.
    """
    configs: list[SgdConfig] = []
    workers: list[int] = []
    reads: list[Sequence[int]] = []
    for cell_configs, plan in cells:
        replay = _replay_reads(cell_configs, plan)
        configs += [*cell_configs, *cell_configs]
        workers += [plan.cluster.workers] * (2 * len(cell_configs))
        reads += [*replay, *(range(job.iterations) for job in plan.jobs)]
    if sum(workers) > _MAX_PAIRS:
        raise ConfigError(f"the SGD oracle trains at most {_MAX_PAIRS} (lane, worker) pairs "
                          f"at once, got {sum(workers)} ({len(workers)} lanes)")
    trained = iter(_train(configs, workers, reads))
    return [_compare([next(trained) for _ in range(2 * len(cell_configs))])
            for cell_configs, _ in cells]


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
