"""Scheduling policies for co-located training jobs on one GPU.

Both policies are one dispatch recurrence over two FIFO lanes, a GPU and the
worker NIC.  Jobs take turns on the GPU in plan order, round by round; a job
whose iteration budget is spent is skipped.  Job ``i`` starts iteration ``t``
at ``max(gpu_free, sync_end[i])`` (the end of its iteration ``t-1`` sync,
zero at ``t = 1``), runs forward then backward, and its fused gradient syncs
from ``max(nic_free, backward_end)``.  After a job's last compute its final
sync still drains, so a ``T``-iteration job always has exactly ``T`` syncs.
Each dispatch appends one trace row (see ``engine``), so rows come in GPU
order, which is also the NIC's FIFO order.

* ``crossover`` -- the GPU moves to the next job the moment a backward pass
  ends, so one job's sync overlaps another job's compute.

* ``sequential`` -- the non-overlapped baseline: the same rotation with the
  GPU held until each sync ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .comm import ClusterSpec, comm_time
from .engine import Row, Trace
from .workload import JobProfile, comp_time

__all__ = [
    "Policy",
    "SchedulePlan",
    "simulate",
    "steady_state_period",
    "predicted_speedup",
]


class Policy(Enum):
    CROSSOVER = "crossover"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class SchedulePlan:
    """A co-location plan: ordered jobs sharing one GPU plus the cluster model.

    Job order is the rotation order.
    """

    policy: Policy
    jobs: tuple[JobProfile, ...]
    cluster: ClusterSpec

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("plan must contain at least one job")
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique within a plan")


def simulate(plan: SchedulePlan) -> Trace:
    """Run the plan under its policy; one trace row per job-iteration, in dispatch order."""
    hold_gpu = plan.policy is Policy.SEQUENTIAL
    comm = {j.job_id: comm_time(j.grad_bytes, plan.cluster) for j in plan.jobs}
    sync_end = dict.fromkeys(comm, 0)
    rows: list[Row] = []
    gpu_free = nic_free = 0
    active = plan.jobs
    for t in range(1, max(j.iterations for j in plan.jobs) + 1):
        active = [j for j in active if j.iterations >= t]
        for job in active:
            job_id = job.job_id
            start = max(gpu_free, sync_end[job_id])
            backward_start = start + job.forward_time
            compute_end = backward_start + job.backward_time
            sync_start = max(nic_free, compute_end)
            nic_free = sync_end[job_id] = sync_start + comm[job_id]
            gpu_free = nic_free if hold_gpu else compute_end
            rows.append((job_id, t, start, backward_start, compute_end, sync_start, nic_free))
    # Every compute is followed by a sync, and the NIC clock never runs back.
    return Trace(tuple(rows), nic_free)


def _homogeneous_comp_comm(plan: SchedulePlan) -> tuple[int, int]:
    comps = {comp_time(j) for j in plan.jobs}
    comms = {comm_time(j.grad_bytes, plan.cluster) for j in plan.jobs}
    if len(comps) != 1 or len(comms) != 1:
        raise ValueError(
            "closed forms require homogeneous jobs (equal compute and sync "
            "durations); simulate heterogeneous plans instead")
    return comps.pop(), comms.pop()


def steady_state_period(plan: SchedulePlan) -> int:
    """Exact steady-state gap between one job's consecutive compute starts.

    Homogeneous jobs only: N*max(comp, comm) under crossover,
    N*(comp + comm) under the sequential baseline.
    """
    comp, comm = _homogeneous_comp_comm(plan)
    n = len(plan.jobs)
    if plan.policy is Policy.CROSSOVER:
        return n * max(comp, comm)
    return n * (comp + comm)


def predicted_speedup(plan: SchedulePlan) -> Fraction:
    """Closed-form crossover-vs-sequential speedup for homogeneous jobs.

    (comp + comm) / max(comp, comm): equals 1 + ratio while the sync hides
    under compute (ratio <= 1), then decays toward 1 as the NIC dominates.
    """
    comp, comm = _homogeneous_comp_comm(plan)
    return Fraction(comp + comm, max(comp, comm))
