"""Numerical oracle: interleaved scheduling does not change SGD trajectories.

The overlapped schedule only reorders *when* each job's synchronization lands
on the wall clock; it never reorders any single job's own compute/update
sequence.  This module makes that claim checkable: it runs synchronous SGD on
seed-generated synthetic problems twice -- once per job in isolation, once in
the exact co-located interleaving order -- and the resulting parameter
trajectories must be bitwise identical.

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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "LossKind",
    "SgdConfig",
    "TrainingState",
    "GradientBatch",
    "make_dataset",
    "initial_state",
    "loss_value",
    "loss_gradient",
    "local_gradient",
    "average_gradients",
    "sgd_step",
    "run_isolated",
    "run_crossover",
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


@dataclass
class GradientBatch:
    """One gradient vector per simulated worker, in worker-index order."""

    per_worker_gradients: list[np.ndarray]


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


def _worker_gradient(state: TrainingState, worker_index: int, config: SgdConfig,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    idx = _batch_indices(state.rng_seed, state.iteration + 1, worker_index,
                         config.dataset_size, config.batch_size)
    return loss_gradient(config.loss, state.parameters, x[idx], y[idx])


def local_gradient(state: TrainingState, worker_index: int,
                   config: SgdConfig) -> np.ndarray:
    """Worker's gradient for the upcoming iteration at the current parameters.

    The mini-batch is drawn deterministically from (job seed, iteration,
    worker index), so the result depends only on the job's own state, never
    on what other jobs did in between.
    """
    if not 0 <= worker_index < config.workers:
        raise ValueError(f"worker_index {worker_index} out of range")
    x, y = make_dataset(config)
    return _worker_gradient(state, worker_index, config, x, y)


def average_gradients(batch: GradientBatch) -> np.ndarray:
    """Element-wise mean with fixed left-to-right summation over workers."""
    grads = batch.per_worker_gradients
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
    x, y = make_dataset(config)
    batch = GradientBatch([_worker_gradient(state, w, config, x, y)
                           for w in range(config.workers)])
    return average_gradients(batch)


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


def run_crossover(configs: Sequence[SgdConfig], iterations: int,
                  rng_seeds: Sequence[int] | None = None,
                  perturb: tuple[int, int] | None = None) -> list[list[TrainingState]]:
    """Run all jobs in the co-located interleaving order.

    Per rotation turn a job computes and ships its averaged gradient; the
    update lands right before that job's next compute (first iteration has
    nothing pending, and a final drain applies the last update).  ``perturb``
    is a test hook: (job_index, iteration) nudges that update's first
    coordinate by one ulp to prove the comparison can fail.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not configs:
        raise ValueError("at least one job config required")
    if rng_seeds is None:
        rng_seeds = list(range(len(configs)))
    if len(rng_seeds) != len(configs):
        raise ValueError("rng_seeds must match configs")

    states = [initial_state(cfg, seed) for cfg, seed in zip(configs, rng_seeds)]
    pending: list[np.ndarray | None] = [None] * len(configs)
    trajectories: list[list[TrainingState]] = [[] for _ in configs]

    def apply_update(j: int) -> None:
        new_state = sgd_step(states[j], pending[j], configs[j])
        if perturb is not None and perturb == (j, new_state.iteration):
            p = new_state.parameters.copy()
            p[0] = np.nextafter(p[0], np.inf)
            new_state = TrainingState(p, new_state.iteration, new_state.rng_seed)
        states[j] = new_state
        trajectories[j].append(new_state)
        pending[j] = None

    for _ in range(iterations):
        for j, cfg in enumerate(configs):
            if pending[j] is not None:
                apply_update(j)
            pending[j] = _averaged_gradient(states[j], cfg)
    for j in range(len(configs)):
        if pending[j] is not None:
            apply_update(j)
    return trajectories


@dataclass(frozen=True)
class NeutralityReport:
    """Outcome of one isolated-vs-interleaved trajectory comparison."""

    max_abs_deviation: float
    first_divergence: tuple[int, int, int] | None  # (job index, iteration, coord)

    @property
    def equal(self) -> bool:
        return self.first_divergence is None and self.max_abs_deviation == 0.0


def check_neutrality(configs: Sequence[SgdConfig], iterations: int,
                     rng_seeds: Sequence[int] | None = None,
                     perturb: tuple[int, int] | None = None) -> NeutralityReport:
    """Compare interleaved trajectories against isolated ones, bit for bit.

    A missing, extra or misnumbered interleaved state is a divergence at the
    first iteration it affects (coordinate 0).
    """
    if rng_seeds is None:
        rng_seeds = list(range(len(configs)))
    crossed = run_crossover(configs, iterations, rng_seeds, perturb=perturb)
    max_dev = 0.0
    first: tuple[int, int, int] | None = None
    for j, (cfg, seed) in enumerate(zip(configs, rng_seeds)):
        isolated = run_isolated(cfg, iterations, seed)
        for t, (a, b) in enumerate(zip(isolated, crossed[j]), start=1):
            if (a.iteration, b.iteration) != (t, t):
                first = first or (j, t, 0)
                break
            diff = np.abs(a.parameters - b.parameters)
            dev = float(diff.max()) if diff.size else 0.0
            if dev > max_dev:
                max_dev = dev
            if first is None and dev != 0.0:
                first = (j, t, int(np.argmax(diff != 0.0)))
        else:
            if len(crossed[j]) != len(isolated):
                first = first or (j, min(len(crossed[j]), len(isolated)) + 1, 0)
    return NeutralityReport(max_dev, first)
