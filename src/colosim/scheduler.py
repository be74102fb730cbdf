"""Scheduling policies for co-located training jobs on one GPU.

Both policies are one dispatch recurrence over two FIFO lanes, a GPU and the
worker NIC.  Jobs take turns on the GPU in plan order, round by round; a job
whose iteration budget is spent is skipped.  Job ``i`` starts iteration ``t``
at ``max(gpu_free, sync_end[i])`` (the end of its iteration ``t-1`` sync,
zero at ``t = 1``), runs forward then backward, and its fused gradient syncs
from ``max(nic_free, backward_end)``.  After a job's last compute its final
sync still drains, so a ``T``-iteration job always has exactly ``T`` syncs.
Each dispatch appends one trace row (see ``engine``), so rows come in GPU
order, which is also the NIC's FIFO order.  ``_run`` is the one place job
order is decided: ``makespan`` runs it without rows, ``simulate`` records
its rows and the plan on a ``Trace``, ``validate_trace`` accepts a trace
``simulate`` returned for any equal plan and compares any other trace with
``simulate(plan).rows``, and the SGD oracle in ``equivalence`` replays them.

* ``crossover`` -- the GPU moves to the next job the moment a backward pass
  ends, so one job's sync overlaps another job's compute.

* ``sequential`` -- the non-overlapped baseline: the same rotation with the
  GPU held until each sync ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .comm import ClusterSpec, comm_time
from .engine import Row, Trace
from .errors import ConfigError
from .workload import JobProfile, comp_time

__all__ = [
    "Policy",
    "SchedulePlan",
    "simulate",
    "makespan",
    "steady_state_period",
    "predicted_speedup",
    "validate_trace",
]


class Policy(Enum):
    CROSSOVER = "crossover"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class SchedulePlan:
    """A co-location plan: ordered jobs sharing one GPU plus the cluster model.

    Job order is the rotation order, and ``comm_times`` holds each job's sync
    time on the cluster, in that order.  No time either policy produces
    exceeds ``sum(T_i * (comp_i + comm_i))``, so that sum must stay below 2^63.
    """

    policy: Policy
    jobs: tuple[JobProfile, ...]
    cluster: ClusterSpec
    comm_times: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ConfigError("plan must contain at least one job")
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ConfigError("job ids must be unique within a plan")
        comm = tuple([comm_time(j.grad_bytes, self.cluster) for j in self.jobs])
        object.__setattr__(self, "comm_times", comm)
        total = sum([j.iterations * (j.forward_time + j.backward_time + c)
                     for j, c in zip(self.jobs, comm)])
        if total >= 2**63:
            raise ConfigError(f"plan: sequential makespan sum(T_i * (comp_i + comm_i)) = "
                              f"{total} ns must stay below 2^63 = {2**63} ns")


def _run(plan: SchedulePlan, rows: list[Row] | None) -> int:
    """Dispatch the plan round by round and return its makespan.

    Appends one row per dispatch when ``rows`` is a list.  While the active
    job set is fixed (a regime), a round is fixed by its start state relative
    to the GPU clock g: the key ``(nic_free - g, max(sync_end_j - g, 0) for
    each active j)``.  The clamp is exact because a job starts at
    ``max(gpu_free, sync_end_j)`` and gpu_free never falls below g within a
    round.  The round is shift-invariant, so once a round starts with the
    previous round's key, every remaining round of the regime is that
    previous round shifted by ``d = g - g_prev`` per round: they are appended
    as shifted copies, or skipped, and the clocks jump to the regime's end
    (a max-plus recurrence is eventually periodic; Baccelli, Cohen, Olsder
    and Quadrat, 1992).  A regime whose period is longer than one round, or
    whose transient outlasts its budget, runs round by round and stays exact.
    """
    hold_gpu = plan.policy is Policy.SEQUENTIAL
    sync_end = {j.job_id: 0 for j in plan.jobs}
    gpu_free = nic_free = 0
    t = 1
    for until in sorted({j.iterations for j in plan.jobs}):
        active = [(j.job_id, j.forward_time, j.backward_time, comm)
                  for j, comm in zip(plan.jobs, plan.comm_times) if j.iterations >= t]
        key = g_prev = None
        while t <= until:
            prev, key = key, (nic_free - gpu_free,
                              *[max(sync_end[job[0]] - gpu_free, 0) for job in active])
            if key == prev:
                d = gpu_free - g_prev
                if rows is not None:
                    last = rows[-len(active):]
                    rows += [(job_id, i, a + s, b + s, c + s, e + s, f + s)
                             for i in range(t, until + 1) for s in ((i - t + 1) * d,)
                             for job_id, _, a, b, c, e, f in last]
                shift = (until + 1 - t) * d
                gpu_free += shift
                nic_free += shift
                for job in active:
                    sync_end[job[0]] += shift
                t = until + 1
                break
            g_prev = gpu_free
            for job_id, forward, backward, job_comm in active:
                start = max(gpu_free, sync_end[job_id])
                backward_start = start + forward
                compute_end = backward_start + backward
                sync_start = max(nic_free, compute_end)
                nic_free = sync_end[job_id] = sync_start + job_comm
                gpu_free = nic_free if hold_gpu else compute_end
                if rows is not None:
                    rows.append((job_id, t, start, backward_start, compute_end,
                                 sync_start, nic_free))
            t += 1
    return nic_free


def simulate(plan: SchedulePlan) -> Trace:
    """Run the plan under its policy; one trace row per job-iteration, in dispatch order.

    The trace records ``plan`` as ``trace.plan`` (see ``validate_trace``).
    """
    rows: list[Row] = []
    _run(plan, rows)
    trace = Trace(tuple(rows))
    object.__setattr__(trace, "plan", plan)
    return trace


def makespan(plan: SchedulePlan) -> int:
    """Exactly ``simulate(plan).makespan``, from the same loop without rows.

    Whole periods are skipped rather than copied, so it keeps no rows and
    no table, and a plan that repeats early costs the same at any budget.
    """
    return _run(plan, None)


_FIELDS = ("start", "backward_start", "compute_end", "sync_start", "sync_end")


def validate_trace(trace: Trace, plan: SchedulePlan) -> list[str]:
    """Check that ``trace.rows`` equals ``simulate(plan).rows``; empty means it does.

    A trace ``simulate`` returned for a plan equal to ``plan`` passes without
    running the schedule again: ``_run`` depends only on the fields a plan
    compares, and rows are immutable.  Any other trace is compared with
    ``simulate(plan).rows``, and the messages name the first row that differs
    (``row k`` is ``trace.rows[k]``): missing, past the schedule's end, the
    wrong job or iteration, or each field that breaks README "Scheduling
    semantics" given the row's own earlier fields and the rows before it,
    which match the schedule.
    """
    if trace.plan == plan:
        return []
    rows, expected = trace.rows, simulate(plan).rows
    if rows == expected:
        return []
    k = next((k for k, (row, want) in enumerate(zip(rows, expected)) if row != want),
             min(len(rows), len(expected)))
    if k == len(rows):
        return [f"row {k}: missing, expected {expected[k][0]} iteration {expected[k][1]}"]
    if k == len(expected):
        return [f"row {k}: {rows[k][0]} iteration {rows[k][1]} after the plan's last row"]
    job_id, t, a, b, c, e, f = expected[k]
    row = rows[k]
    if row[:2] != (job_id, t):
        return [f"row {k}: {row[0]} iteration {row[1]}, expected {job_id} iteration {t}"]
    _, _, start, backward_start, compute_end, sync_start, _ = row
    nic_free = expected[k - 1][6] if k else 0
    want = (a, start + (b - a), backward_start + (c - b), max(nic_free, compute_end),
            sync_start + (f - e))
    return [f"row {k} ({job_id} iteration {t}): {name} {got}, expected {value}"
            for name, got, value in zip(_FIELDS, row[2:], want) if got != value]


def _periods(plan: SchedulePlan) -> tuple[int, int]:
    """(crossover, sequential) steady-state periods; see steady_state_period."""
    comps = [comp_time(j) for j in plan.jobs]
    comms = plan.comm_times
    own = max(comp + comm for comp, comm in zip(comps, comms))
    return max(sum(comps), sum(comms), own), sum(comps) + sum(comms)


def steady_state_period(plan: SchedulePlan) -> int:
    """Exact steady-state gap between one job's consecutive compute starts.

    Any plan, while every job still has iterations left.  Sequential holds
    the GPU through each sync, so a rotation is ``sum(comp_i + comm_i)``.
    Crossover gives ``max(sum comp_i, sum comm_i, max_i(comp_i + comm_i))``:
    one rotation is max-plus linear in the lane and sync clocks, so the
    period is the maximum cycle mean of its timed event graph (Baccelli,
    Cohen, Olsder and Quadrat, *Synchronization and Linearity*, 1992).  Its
    nodes are compute starts s_i and sync starts n_i; its arcs are
    s_i -> s_i+1 (the GPU) and s_i -> n_i, both weighing comp_i, and
    n_i -> n_i+1 (the NIC) and n_i -> s_i, both weighing comm_i.  Arcs
    n_i -> s_i and the arcs from job N to job 1 cross into the next rotation.
    An elementary circuit leaves each node once, so it weighs at most
    ``sum comp_i + sum comm_i``.  The circuits that cross one rotation are
    the GPU ring, the NIC ring and each job's loop s_i -> n_i -> s_i, which
    give the three terms; any other circuit crosses at least two, so its
    mean is at most half that sum and never exceeds the larger ring.
    """
    crossover, sequential = _periods(plan)
    return crossover if plan.policy is Policy.CROSSOVER else sequential


def predicted_speedup(plan: SchedulePlan) -> Fraction:
    """Closed-form steady-state speedup of crossover over sequential, any plan.

    The ratio of the two ``steady_state_period`` forms.  For N >= 2 identical
    jobs it is (comp + comm) / max(comp, comm): 1 + ratio while the sync
    hides under compute (ratio <= 1), then decaying toward 1 as the NIC
    dominates.  A single job gets 1: both policies give it the same trace.
    """
    crossover, sequential = _periods(plan)
    return Fraction(sequential, crossover)
