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

from .errors import _check_least, _check_type

__all__ = ["Architecture", "ClusterSpec", "cost_terms", "comm_time"]

NS_PER_S = 10**9

# Each number a cluster holds, in checking order, with its least value.
_CLUSTER_LEAST = (("workers", 1), ("bandwidth_bytes_per_sec", 1), ("latency_per_message", 0))


class Architecture(Enum):
    PARAMETER_SERVER = "parameter_server"
    RING_ALLREDUCE = "ring_allreduce"


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster description for the cost models.

    bandwidth_bytes_per_sec is the per-worker NIC bandwidth; latency_per_message
    is the fixed per-message cost in nanoseconds.  The simulator materializes
    one representative GPU and its worker NIC (all workers are symmetric).
    The cluster checks its numbers against ``_CLUSTER_LEAST`` and its
    ``architecture`` by exact type itself, because ``comm_time`` prices a
    cluster without a plan, so every sync time is its formula's ``int``.
    """

    workers: int
    bandwidth_bytes_per_sec: int
    latency_per_message: int = 0
    architecture: Architecture = Architecture.RING_ALLREDUCE

    def __post_init__(self):
        _check_least("cluster.", _CLUSTER_LEAST, (self.workers, self.bandwidth_bytes_per_sec,
                                                  self.latency_per_message))
        _check_type("cluster.architecture", Architecture, self.architecture)


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
    """Duration of one ``size_bytes`` sync in whole nanoseconds (ceiling).

    ``size_bytes`` must be an exact ``int`` >= 0, as a plan's ``grad_bytes`` must.
    """
    _check_least("", (("size_bytes", 0),), (size_bytes,))
    return _sync_times(cost_terms(cluster), [size_bytes])[0]


def _sync_times(terms: tuple[int, int, int], sizes: list[int]) -> tuple[int, ...]:
    """``comm_time`` of each size, which the caller has checked, from ``cost_terms``."""
    latency, num, den = terms
    return tuple([latency + -(-size * num // den) for size in sizes])
