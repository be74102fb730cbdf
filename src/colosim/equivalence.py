"""Numerical oracle: the co-located schedule does not change SGD trajectories.

The overlapped schedule only reorders *when* each job's synchronization lands
on the wall clock; it never reorders any single job's own compute/update
sequence.  This module makes that claim checkable: it runs synchronous SGD on
seed-generated synthetic problems per job in isolation and along the rows of
``scheduler.simulate``, and the parameter trajectories must be bitwise
identical.  Along the trace, a job applies each pending update whose sync has
ended at a row's ``start``, so a compute that starts before the job's previous
sync ends reads stale parameters and diverges.

Everything is double precision with a fixed left-to-right reduction order so
bit equality is well defined.

A mini-batch is a pure function of (job seed, iteration, worker index,
dataset size, batch size), so each draw is made once per process and shared,
read-only, by both runs, as is each config's synthetic dataset.  Gradients,
gathered batches and anything else derived from the parameters are never
cached: both runs compute every gradient themselves, or the comparison would
prove nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .scheduler import SchedulePlan, simulate

__all__ = [
    "LossKind",
    "SgdConfig",
    "TrainingState",
    "make_dataset",
    "initial_state",
    "loss_value",
    "loss_gradient",
    "average_gradients",
    "sgd_step",
    "run_isolated",
    "replay_trace",
    "NeutralityReport",
    "check_neutrality",
]


class LossKind(Enum):
    LEAST_SQUARES = "least_squares"
    LOGISTIC = "logistic_regression"


@dataclass(frozen=True)
class SgdConfig:
    """Synchronous-SGD setup for one job's synthetic training problem."""

    learning_rate: float
    workers: int
    loss: LossKind
    dataset_seed: int
    dim: int = 8
    dataset_size: int = 128
    batch_size: int = 16

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if min(self.dim, self.dataset_size, self.batch_size) < 1:
            raise ValueError("dim, dataset_size and batch_size must be >= 1")


@dataclass
class TrainingState:
    """Model parameters after ``iteration`` completed updates."""

    parameters: np.ndarray
    iteration: int
    rng_seed: int


@lru_cache(maxsize=128)
def make_dataset(config: SgdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic dataset for the config (cached, read-only)."""
    rng = np.random.default_rng(config.dataset_seed)
    x = rng.standard_normal((config.dataset_size, config.dim))
    w_true = rng.standard_normal(config.dim)
    z = x @ w_true
    if config.loss is LossKind.LEAST_SQUARES:
        y = z
    else:
        y = (z > 0).astype(np.float64)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def initial_state(config: SgdConfig, rng_seed: int = 0) -> TrainingState:
    rng = np.random.default_rng([rng_seed, 0])
    return TrainingState(rng.standard_normal(config.dim), 0, rng_seed)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def loss_value(loss: LossKind, parameters: np.ndarray,
               x: np.ndarray, y: np.ndarray) -> float:
    z = x @ parameters
    if loss is LossKind.LEAST_SQUARES:
        r = z - y
        return float(0.5 * np.mean(r * r))
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def loss_gradient(loss: LossKind, parameters: np.ndarray,
                  x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean gradient of the loss over the given batch."""
    if x.shape[1] != parameters.shape[0] or x.shape[0] != y.shape[0]:
        raise ValueError("batch shapes do not match parameter dimension")
    z = x @ parameters
    if loss is LossKind.LEAST_SQUARES:
        residual = z - y
    else:
        residual = _sigmoid(z) - y
    return x.T @ residual / len(y)


# Distinct mini-batch draws kept per process.  The default CLI grid makes
# 1,200: 3 job seeds x worker indices 0-3 x 100 iterations.
_BATCH_CACHE_SIZE = 2048


@lru_cache(maxsize=_BATCH_CACHE_SIZE)
def _batch_indices(rng_seed: int, iteration: int, worker_index: int,
                   dataset_size: int, batch_size: int) -> np.ndarray:
    """Read-only sample indices of one worker's mini-batch for one iteration."""
    rng = np.random.default_rng([rng_seed, 1, iteration, worker_index])
    idx = rng.integers(0, dataset_size, size=batch_size)
    idx.setflags(write=False)
    return idx


def average_gradients(grads: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise mean of per-worker gradients, summed left to right."""
    if not grads:
        raise ValueError("gradient batch must be non-empty")
    acc = np.zeros_like(grads[0])
    for g in grads:
        if g.shape != acc.shape:
            raise ValueError("gradient shapes differ across workers")
        acc = acc + g
    return acc / len(grads)


def sgd_step(state: TrainingState, averaged: np.ndarray,
             config: SgdConfig) -> TrainingState:
    if averaged.shape != state.parameters.shape:
        raise ValueError("gradient shape does not match parameters")
    return TrainingState(state.parameters - config.learning_rate * averaged,
                         state.iteration + 1, state.rng_seed)


def _averaged_gradient(state: TrainingState, config: SgdConfig) -> np.ndarray:
    """Averaged gradient for the job's next iteration at its current parameters.

    Each worker's mini-batch is drawn from (job seed, iteration, worker
    index) alone, never from what other jobs did in between.
    """
    x, y = make_dataset(config)
    grads = []
    for w in range(config.workers):
        idx = _batch_indices(state.rng_seed, state.iteration + 1, w,
                             config.dataset_size, config.batch_size)
        grads.append(loss_gradient(config.loss, state.parameters, x[idx], y[idx]))
    return average_gradients(grads)


def run_isolated(config: SgdConfig, iterations: int,
                 rng_seed: int = 0) -> list[TrainingState]:
    """Reference trajectory: plain synchronous SGD, no interleaving."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    state = initial_state(config, rng_seed)
    trajectory = []
    for _ in range(iterations):
        state = sgd_step(state, _averaged_gradient(state, config), config)
        trajectory.append(state)
    return trajectory


def replay_trace(configs: Sequence[SgdConfig], plan: SchedulePlan,
                 rng_seeds: Sequence[int],
                 perturb: tuple[int, int] | None) -> Iterator[tuple[int, TrainingState]]:
    """Train ``configs[i]`` as ``plan.jobs[i]`` along ``simulate(plan).rows``.

    Yields ``(job index, state)`` as each update lands: at a row's start,
    every pending update of that job whose sync ended by then; after the last
    row, whatever is still queued.  ``perturb`` is a test hook:
    (job_index, iteration) nudges that update's first coordinate by one ulp
    to prove the comparison can fail.
    """
    if not len(configs) == len(rng_seeds) == len(plan.jobs):
        raise ValueError("configs and rng_seeds must match the plan's jobs")
    index = {job.job_id: j for j, job in enumerate(plan.jobs)}
    states = [initial_state(cfg, seed) for cfg, seed in zip(configs, rng_seeds)]
    pending: list[deque[tuple[int, np.ndarray]]] = [deque() for _ in configs]

    def land(j: int) -> tuple[int, TrainingState]:
        state = sgd_step(states[j], pending[j].popleft()[1], configs[j])
        if perturb == (j, state.iteration):
            state.parameters[0] = np.nextafter(state.parameters[0], np.inf)
        states[j] = state
        return j, state

    for job_id, _, start, *_, sync_end in simulate(plan).rows:
        j = index[job_id]
        while pending[j] and pending[j][0][0] <= start:
            yield land(j)
        pending[j].append((sync_end, _averaged_gradient(states[j], configs[j])))
    for j in range(len(configs)):
        while pending[j]:
            yield land(j)


@dataclass(frozen=True)
class NeutralityReport:
    """Outcome of one isolated-vs-interleaved trajectory comparison."""

    max_abs_deviation: float
    first_divergence: tuple[int, int, int] | None  # (job index, iteration, coord)

    @property
    def equal(self) -> bool:
        return self.first_divergence is None and self.max_abs_deviation == 0.0


def check_neutrality(configs: Sequence[SgdConfig], plan: SchedulePlan,
                     rng_seeds: Sequence[int],
                     perturb: tuple[int, int] | None = None) -> NeutralityReport:
    """Compare the replayed trajectories against isolated ones, bit for bit.

    Each job's isolated reference steps as each replayed update lands, so no
    trajectory is stored, and its budget is the plan's.  A missing, extra or
    misnumbered replayed state is a divergence at the first iteration it
    affects (coordinate 0).  The lowest (job, iteration) divergence is
    reported.
    """
    reference = [initial_state(cfg, seed) for cfg, seed in zip(configs, rng_seeds)]
    max_dev = 0.0
    diverged: dict[int, tuple[int, int]] = {}
    for j, state in replay_trace(configs, plan, rng_seeds, perturb):
        t = reference[j].iteration + 1
        if state.iteration != t or t > plan.jobs[j].iterations:
            diverged.setdefault(j, (t, 0))
            continue
        ref, cfg = reference[j], configs[j]
        ref = reference[j] = sgd_step(ref, _averaged_gradient(ref, cfg), cfg)
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
