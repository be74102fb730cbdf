"""Gradient-synchronization cost models.

Two architectures are modeled with the standard latency/bandwidth (alpha-beta)
form, using integer nanoseconds and ceiling rounding so identical inputs give
identical durations:

* ring allreduce: ``2*(W-1)*alpha + 2*((W-1)/W) * size / B``
* parameter server: ``2*alpha + 2 * size / B`` (push then pull; the worker
  NIC is the bottleneck, so sharding across servers does not change it)

A collective is modeled as a single duration because all workers run
lock-step synchronous SGD; worker count still shapes the ring cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import ConfigError
from .workload import FusedGradient, JobProfile, comp_time, fuse_gradients

__all__ = [
    "Architecture",
    "ClusterSpec",
    "comm_time_allreduce",
    "comm_time_ps",
    "comm_time",
    "comm_time_unfused",
    "comm_comp_ratio",
]

NS_PER_S = 10**9


class Architecture(Enum):
    PARAMETER_SERVER = "parameter_server"
    RING_ALLREDUCE = "ring_allreduce"


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster description for the cost models.

    bandwidth_bytes_per_sec is the per-worker NIC bandwidth; latency_per_message
    is the fixed per-message cost in nanoseconds.  gpus_per_worker is carried
    for completeness; the simulator materializes one representative GPU and
    its worker NIC (all workers are symmetric).
    """

    workers: int
    bandwidth_bytes_per_sec: int
    latency_per_message: int = 0
    architecture: Architecture = Architecture.RING_ALLREDUCE
    gpus_per_worker: int = 1
    ps_servers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("cluster.workers must be >= 1")
        if self.gpus_per_worker < 1:
            raise ConfigError("cluster.gpus_per_worker must be >= 1")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ConfigError("cluster.bandwidth must be > 0")
        if self.latency_per_message < 0:
            raise ConfigError("cluster.latency must be >= 0")
        if self.architecture is Architecture.PARAMETER_SERVER and self.ps_servers < 1:
            raise ConfigError("cluster.ps_servers must be >= 1 for parameter_server")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def comm_time_allreduce(size_bytes: int, cluster: ClusterSpec) -> int:
    """Ring-allreduce duration in whole nanoseconds (ceiling); 0 when W == 1."""
    if cluster.architecture is not Architecture.RING_ALLREDUCE:
        raise ConfigError("comm_time_allreduce requires architecture=ring_allreduce")
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    w = cluster.workers
    if w == 1:
        return 0
    latency = 2 * (w - 1) * cluster.latency_per_message
    transfer = _ceil_div(2 * (w - 1) * size_bytes * NS_PER_S,
                         w * cluster.bandwidth_bytes_per_sec)
    return latency + transfer


def comm_time_ps(size_bytes: int, cluster: ClusterSpec) -> int:
    """Parameter-server duration (gradient push + update pull) in nanoseconds."""
    if cluster.architecture is not Architecture.PARAMETER_SERVER:
        raise ConfigError("comm_time_ps requires architecture=parameter_server")
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    latency = 2 * cluster.latency_per_message
    transfer = _ceil_div(2 * size_bytes * NS_PER_S, cluster.bandwidth_bytes_per_sec)
    return latency + transfer


def _comm_time_bytes(size_bytes: int, cluster: ClusterSpec) -> int:
    if cluster.architecture is Architecture.RING_ALLREDUCE:
        return comm_time_allreduce(size_bytes, cluster)
    return comm_time_ps(size_bytes, cluster)


def comm_time(payload: FusedGradient, cluster: ClusterSpec) -> int:
    """Duration of one fused-gradient sync under the cluster's architecture."""
    return _comm_time_bytes(payload.size_bytes, cluster)


def comm_time_unfused(messages: Iterable[FusedGradient], cluster: ClusterSpec) -> int:
    """Total time to synchronize a multi-message payload; each message pays latency."""
    return sum(_comm_time_bytes(m.size_bytes, cluster) for m in messages)


def comm_comp_ratio(job: JobProfile, cluster: ClusterSpec) -> Fraction:
    """Exact ratio of fused sync time to one iteration's compute time."""
    comp = comp_time(job)
    if comp <= 0:
        raise ValueError(f"job {job.job_id!r}: compute time must be > 0")
    sync = comm_time(fuse_gradients(job, 1), cluster)
    return Fraction(sync, comp)
