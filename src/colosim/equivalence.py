"""Numerical oracle: the co-located schedule does not change SGD trajectories.

The overlapped schedule only reorders *when* each job's synchronization lands
on the wall clock; it never reorders any single job's own compute/update
sequence.  This module makes that claim checkable: it runs synchronous SGD on
seed-generated synthetic problems per job in isolation and along the rows of
``scheduler.simulate``, and the parameter trajectories must be bitwise
identical.  Along the trace, a job applies each pending update whose sync has
ended at a row's ``start``, so a compute that starts before the job's previous
sync ends reads stale parameters and diverges.  The tests show the
comparison failing on edited replayed states, down to one ulp in one
coordinate, and on edited trace rows.

Everything is double precision with a fixed left-to-right reduction order so
bit equality is well defined.

Every job trains the same size of problem at the same learning rate
(``DIM``, ``DATASET_SIZE``, ``BATCH_SIZE``, ``LEARNING_RATE``); an
``SgdConfig`` picks only its loss and seeds, and the worker count is that of
the plan's cluster, at most ``MAX_WORKERS``.  A worker's mini-batch is a pure
function of (job seed, iteration, worker index): one generator, keyed by
(job seed, block, worker index), draws that worker's batches for a block of
16 iterations.  Each block is drawn once per process and shared, read-only,
by both runs, as is each config's synthetic dataset.  Gathered batches,
gradients and anything else derived from the parameters are never cached:
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

from .errors import ConfigError, _a, _check_least
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
        if type(self.loss) is not LossKind:
            raise ConfigError(f"sgd_config.loss: expected a LossKind, got {_a(self.loss)}")
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


def loss_gradient(loss: LossKind, parameters: np.ndarray,
                  x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Worker-averaged mean gradient over a stack of equal-size worker batches.

    ``x`` is ``(workers, batch, dim)`` and ``y`` is ``(workers, batch)``.  One
    ``matmul`` gives every worker's ``x_w.T @ r_w / batch``; the worker rows
    are summed left to right and divided by the worker count, which for equal
    batches is the mean gradient over every row of the stack.  The oracle
    builds the stack from checked configs, so the shapes are not re-checked.
    """
    z = x @ parameters
    if loss is LossKind.LEAST_SQUARES:
        residual = z - y
    else:
        residual = 0.5 * (1.0 + np.tanh(0.5 * z)) - y  # sigmoid(z) - y
    per_worker = np.matmul(x.transpose(0, 2, 1), residual[..., None])[..., 0] / y.shape[1]
    return np.add.accumulate(per_worker)[-1] / len(y)


# Iterations per draw block: one generator per (job seed, block, worker)
# fills that worker's mini-batches for 16 iterations in a row.
_BLOCK = 16

# The most workers a replay averages over, so a block (16 x workers x
# BATCH_SIZE int64 indices, 128 KiB at the bound) stays small.
MAX_WORKERS = 64

# Blocks kept per process: 64 blocks of at most 128 KiB, so retained draws
# stay within 8 MiB.  The default CLI grid builds 63 blocks (3 job seeds x
# worker counts 1, 2, 4 x 7 blocks of 100 iterations), each drawn once; past
# the cache size a block is still reused, since each job's isolated run asks
# for an iteration's draw soon after its replayed run did.
_CACHE_SIZE = 64


@lru_cache(maxsize=_CACHE_SIZE)
def _draw_block(rng_seed: int, block: int, workers: int) -> np.ndarray:
    """Read-only ``(16, workers, BATCH_SIZE)`` indices of one block's iterations.

    Worker ``w``'s slice depends on (job seed, block, ``w``) alone, so a
    W-worker block begins with the w-worker one.
    """
    idx = np.empty((_BLOCK, workers, BATCH_SIZE), dtype=np.int64)
    for w in range(workers):
        rng = np.random.default_rng([rng_seed, 1, block, w])
        idx[:, w] = rng.integers(0, DATASET_SIZE, size=(_BLOCK, BATCH_SIZE))
    idx.setflags(write=False)
    return idx


def _batch_indices(rng_seed: int, iteration: int, workers: int) -> np.ndarray:
    """Read-only ``(workers, BATCH_SIZE)`` view of one iteration's worker draws."""
    block, row = divmod(iteration - 1, _BLOCK)
    return _draw_block(rng_seed, block, workers)[row]


def sgd_step(state: TrainingState, averaged: np.ndarray) -> TrainingState:
    return TrainingState(state.parameters - LEARNING_RATE * averaged,
                         state.iteration + 1)


def _averaged_gradient(state: TrainingState, config: SgdConfig,
                       dataset: tuple[np.ndarray, np.ndarray], workers: int) -> np.ndarray:
    """Averaged gradient for the job's next iteration at its current parameters.

    ``dataset`` is ``make_dataset(config)``, looked up once per job by the
    caller.  Each worker's mini-batch is drawn from (job seed, iteration,
    worker index) alone, never from what other jobs did in between.
    """
    x, y = dataset
    idx = _batch_indices(config.rng_seed, state.iteration + 1, workers)
    return loss_gradient(config.loss, state.parameters, x.take(idx, axis=0), y.take(idx))


def replay_trace(configs: Sequence[SgdConfig],
                 plan: SchedulePlan) -> Iterator[tuple[int, TrainingState]]:
    """Train ``configs[i]`` as ``plan.jobs[i]`` along ``simulate(plan).rows``.

    Yields ``(job index, state)`` as each update lands: at a row's start,
    every pending update of that job whose sync ended by then; after the last
    row, whatever is still queued.  Each job averages the gradients of
    ``plan.cluster.workers`` workers, the count its syncs were priced for,
    and raises ``ConfigError`` when that is more than ``MAX_WORKERS``, as it
    does unless ``configs`` holds one config per job.
    """
    if len(configs) != len(plan.jobs):
        raise ConfigError(f"configs: got {len(configs)} for {len(plan.jobs)} jobs, "
                          f"expected one per job")
    workers = plan.cluster.workers
    if workers > MAX_WORKERS:
        raise ConfigError(f"the SGD oracle averages at most {MAX_WORKERS} workers, "
                          f"got {workers}")
    index = {job.job_id: j for j, job in enumerate(plan.jobs)}
    states = [initial_state(cfg) for cfg in configs]
    datasets = [make_dataset(cfg) for cfg in configs]
    pending: list[deque[tuple[int, np.ndarray]]] = [deque() for _ in configs]

    def land(j: int) -> tuple[int, TrainingState]:
        states[j] = sgd_step(states[j], pending[j].popleft()[1])
        return j, states[j]

    for job_id, _, start, *_, sync_end in simulate(plan).rows:
        j = index[job_id]
        while pending[j] and pending[j][0][0] <= start:
            yield land(j)
        gradient = _averaged_gradient(states[j], configs[j], datasets[j], workers)
        pending[j].append((sync_end, gradient))
    for j in range(len(configs)):
        while pending[j]:
            yield land(j)


@dataclass(frozen=True)
class NeutralityReport:
    """Outcome of one isolated-vs-interleaved trajectory comparison.

    The trajectories are bitwise equal exactly when ``first_divergence`` is
    None: any nonzero deviation records a divergence.
    """

    max_abs_deviation: float
    first_divergence: tuple[int, int, int] | None  # (job index, iteration, coord)


def check_neutrality(configs: Sequence[SgdConfig], plan: SchedulePlan) -> NeutralityReport:
    """Compare the replayed trajectories against isolated ones, bit for bit.

    Each job's isolated reference steps as each replayed update lands, so no
    trajectory is stored, and its budget is the plan's.  A missing, extra or
    misnumbered replayed state is a divergence at the first iteration it
    affects (coordinate 0).  The lowest (job, iteration) divergence is
    reported.
    """
    workers = plan.cluster.workers
    reference = [initial_state(cfg) for cfg in configs]
    datasets = [make_dataset(cfg) for cfg in configs]
    max_dev = 0.0
    diverged: dict[int, tuple[int, int]] = {}
    for j, state in replay_trace(configs, plan):
        t = reference[j].iteration + 1
        if state.iteration != t or t > plan.jobs[j].iterations:
            diverged.setdefault(j, (t, 0))
            continue
        gradient = _averaged_gradient(reference[j], configs[j], datasets[j], workers)
        ref = reference[j] = sgd_step(reference[j], gradient)
        diff = np.abs(ref.parameters - state.parameters)
        dev = float(diff.max())
        max_dev = max(max_dev, dev)
        if dev != 0.0:
            diverged.setdefault(j, (t, int(np.argmax(diff != 0.0))))
    for j, (ref, job) in enumerate(zip(reference, plan.jobs)):
        if ref.iteration < job.iterations:
            diverged.setdefault(j, (ref.iteration + 1, 0))
    first = min(((j, *where) for j, where in diverged.items()), default=None)
    return NeutralityReport(max_dev, first)
