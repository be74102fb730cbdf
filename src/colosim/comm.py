"""Gradient-synchronization cost models.

Two architectures are modeled with the standard latency/bandwidth (alpha-beta)
form, using integer nanoseconds and ceiling rounding so identical inputs give
identical durations:

* ring allreduce: ``2*(W-1)*alpha + 2*((W-1)/W) * size / B``
* parameter server: ``2*alpha + 2 * size / B`` (push then pull; the worker
  NIC is the bottleneck, so the number of servers is not an input)

A collective is modeled as a single duration because all workers run
lock-step synchronous SGD; worker count still shapes the ring cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError

__all__ = [
    "Architecture",
    "ClusterSpec",
    "cost_terms",
    "comm_time",
]

NS_PER_S = 10**9


class Architecture(Enum):
    PARAMETER_SERVER = "parameter_server"
    RING_ALLREDUCE = "ring_allreduce"


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster description for the cost models.

    bandwidth_bytes_per_sec is the per-worker NIC bandwidth; latency_per_message
    is the fixed per-message cost in nanoseconds.  The simulator materializes
    one representative GPU and its worker NIC (all workers are symmetric).
    """

    workers: int
    bandwidth_bytes_per_sec: int
    latency_per_message: int = 0
    architecture: Architecture = Architecture.RING_ALLREDUCE

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("cluster.workers must be >= 1")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ConfigError("cluster.bandwidth must be > 0")
        if self.latency_per_message < 0:
            raise ConfigError("cluster.latency must be >= 0")


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
