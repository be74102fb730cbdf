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

from .errors import ConfigError
from .workload import JobProfile, comp_time

__all__ = [
    "Architecture",
    "ClusterSpec",
    "cost_terms",
    "comm_time",
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


def cost_terms(cluster: ClusterSpec) -> tuple[int, int, int]:
    """The cluster's sync cost as ``(latency_ns, num, den)``.

    One message of S bytes takes ``latency_ns + ceil(S * num / den)``
    nanoseconds, so ``num / den`` is the per-byte cost in ns.  A one-worker
    ring exchanges nothing: all three terms but ``den`` are 0.
    """
    alpha, bandwidth = cluster.latency_per_message, cluster.bandwidth_bytes_per_sec
    if cluster.architecture is Architecture.RING_ALLREDUCE:
        w = cluster.workers
        return 2 * (w - 1) * alpha, 2 * (w - 1) * NS_PER_S, w * bandwidth
    return 2 * alpha, 2 * NS_PER_S, bandwidth


def comm_time(size_bytes: int, cluster: ClusterSpec) -> int:
    """Duration of one ``size_bytes`` sync in whole nanoseconds (ceiling)."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    latency, num, den = cost_terms(cluster)
    return latency + -(-size_bytes * num // den)


def comm_comp_ratio(job: JobProfile, cluster: ClusterSpec) -> Fraction:
    """Exact ratio of fused sync time to one iteration's compute time."""
    comp = comp_time(job)
    if comp <= 0:
        raise ValueError(f"job {job.job_id!r}: compute time must be > 0")
    return Fraction(comm_time(job.grad_bytes, cluster), comp)
