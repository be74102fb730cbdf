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
its rows as blocks and the plan on a ``Trace``, ``validate_trace`` accepts
a trace ``simulate`` returned for any equal plan and compares any other
trace with ``simulate(plan).rows``, and the SGD oracle in ``equivalence``
replays them.

* ``crossover`` -- the GPU moves to the next job the moment a backward pass
  ends, so one job's sync overlaps another job's compute.

* ``sequential`` -- the non-overlapped baseline: the same rotation with the
  GPU held until each sync ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .comm import ClusterSpec, _sync_times, cost_terms
from .engine import (_INT_LIMIT, _JOB_ID_LIMIT, _NAMES, _TYPES, Block, Row, Trace, _escaped,
                     _misshapen)
from .errors import ConfigError, _a, _check_least, _check_type, _quoted
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


# Each job field, in checking order, and its least value, whose exact type it must have.
_JOB_LEAST = (("job_id", ""), ("forward_time", 0), ("backward_time", 0), ("grad_bytes", 0),
              ("iterations", 1))


class Policy(Enum):
    CROSSOVER = "crossover"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class SchedulePlan:
    """A co-location plan: ordered jobs sharing one GPU plus the cluster model.

    Job order is the rotation order, and ``comm_times`` holds each job's sync
    time on the cluster, in that order.  ``sequential_makespan`` is
    ``sum(T_i * (comp_i + comm_i))``, which equals ``makespan`` under
    ``sequential``: each row starts at the previous row's sync end and adds
    exactly ``comp_i + comm_i``.  No time either policy produces exceeds it,
    so it must stay below ``engine._INT_LIMIT``, 2^63.
    Its fields are checked here, and a job's only here, each broken rule a
    ``ConfigError`` naming the field: ``policy`` and ``cluster`` by exact
    type, ``jobs`` a ``list`` or ``tuple`` (kept as a tuple), each ``jobs[i]``
    by exact type, and each ``jobs[i].<field>`` against
    ``_JOB_LEAST``, ``forward_time + backward_time > 0``, and a unique
    ``job_id`` of at most ``engine._JOB_ID_LIMIT`` characters once
    JSON-escaped.
    """

    policy: Policy
    jobs: tuple[JobProfile, ...]
    cluster: ClusterSpec
    comm_times: tuple[int, ...] = field(init=False, repr=False, compare=False)
    sequential_makespan: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_type("policy", Policy, self.policy)
        _check_type("cluster", ClusterSpec, self.cluster)
        if type(self.jobs) not in (list, tuple):
            raise ConfigError(f"jobs: expected a list or tuple, got {_a(self.jobs)}")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ConfigError("plan must contain at least one job")
        first: dict[str, int] = {}
        for i, job in enumerate(self.jobs):
            _check_type(f"jobs[{i}]", JobProfile, job)
            _check_least(f"jobs[{i}].", _JOB_LEAST, (job.job_id, job.forward_time,
                         job.backward_time, job.grad_bytes, job.iterations))
            if job.forward_time + job.backward_time == 0:
                raise ConfigError(f"jobs[{i}]: forward_time + backward_time must be > 0")
            escaped = _escaped(job.job_id)
            if len(escaped) > _JOB_ID_LIMIT:
                raise ConfigError(f"jobs[{i}].job_id: {len(escaped)} characters once "
                                  f"JSON-escaped exceed the limit of {_JOB_ID_LIMIT}")
            if first.setdefault(job.job_id, i) != i:
                raise ConfigError(f'jobs[{i}].job_id: "{escaped}" is also '
                                  f"jobs[{first[job.job_id]}].job_id, and ids must be unique")
        comm = _sync_times(cost_terms(self.cluster), [j.grad_bytes for j in self.jobs])
        object.__setattr__(self, "comm_times", comm)
        object.__setattr__(self, "sequential_makespan", _sequential_makespan(self.jobs, comm))


def _sequential_makespan(jobs: tuple[JobProfile, ...], comm_times: tuple[int, ...]) -> int:
    """``sum(T_i * (comp_i + comm_i))``, or a ``ConfigError`` unless it is below 2^63."""
    total = sum([j.iterations * (j.forward_time + j.backward_time + c)
                 for j, c in zip(jobs, comm_times)])
    if total >= _INT_LIMIT:
        raise ConfigError(f"plan: sequential makespan sum(T_i * (comp_i + comm_i)) = "
                          f"{_quoted(total)} ns must stay below 2^63 = {_INT_LIMIT} ns")
    return total


def _run(policy: Policy, jobs: tuple[JobProfile, ...], comm_times: tuple[int, ...],
         blocks: list[Block] | None) -> list[int]:
    """Dispatch ``jobs`` round by round; return ``[gpu_free, nic_free, *sync_end]``.

    ``policy``, ``jobs`` and ``comm_times`` are a checked plan's fields of
    those names, or its jobs with other sync times that pass
    ``_sequential_makespan``, as a sweep point's do: ``jobs[i]`` syncs for
    ``comm_times[i]`` ns, and its ``grad_bytes`` is not read.  The end state
    holds each job's last sync end in job order, and ``nic_free`` is the
    makespan.  When ``blocks`` is a list, appends each dispatched round to
    it as one block (see ``engine._chunks``).  While the active job set is
    fixed (a regime), a round is fixed by its start state relative to the
    GPU clock g: the key is ``nic_free - g`` followed by ``sync_end_j - g``
    clamped at zero for each active j.  Regimes come in order of budget, so
    each regime's ``active`` lanes are the previous regime's, in plan order,
    less those whose budget is spent.  A round's key is built only when it
    can be compared: when another round of the regime follows
    (``t < until``) or a key precedes it, so a one-round regime builds none.
    The clamp is exact because a job
    starts at ``max(gpu_free, sync_end_j)`` and gpu_free never falls below g
    within a round.  Sync ends are a list indexed by job position, and each
    ``max`` is a conditional that keeps the first operand on a tie, as
    ``max`` does, so a row shares its ``int`` objects with the row before
    it.  The round is shift-invariant, so once a round starts with the
    previous round's key, every remaining round of the regime is that
    previous round shifted by ``d = g - g_prev`` per round.  The previous
    round's block becomes ``(round, d, until + 1 - t)`` and the clocks jump
    to the regime's end (a max-plus recurrence is eventually periodic;
    Baccelli, Cohen, Olsder and Quadrat, 1992).  A regime whose period is
    longer than one round, or whose transient outlasts its budget, runs
    round by round and stays exact.
    """
    hold_gpu = policy is Policy.SEQUENTIAL
    active = [(i, j.job_id, j.forward_time, j.backward_time, comm, j.iterations)
              for i, (j, comm) in enumerate(zip(jobs, comm_times))]
    sync_end = [0] * len(active)
    gpu_free = nic_free = 0
    rows: list[Row] | None = None if blocks is None else []
    t = 1
    for until in sorted({j.iterations for j in jobs}):
        active = [lane for lane in active if lane[5] >= t]
        positions = [lane[0] for lane in active]
        key = g_prev = None
        while t <= until:
            if t < until or key is not None:
                prev, key = key, [nic_free - gpu_free, *[sync_end[i] - gpu_free
                                                         if sync_end[i] > gpu_free else 0
                                                         for i in positions]]
                if key == prev:
                    d = gpu_free - g_prev
                    if blocks is not None:
                        blocks[-1] = (blocks[-1][0], d, until + 1 - t)
                    shift = (until + 1 - t) * d
                    gpu_free += shift
                    nic_free += shift
                    for i in positions:
                        sync_end[i] += shift
                    t = until + 1
                    break
            g_prev = gpu_free
            for i, job_id, forward, backward, job_comm, _ in active:
                start = sync_end[i]
                if gpu_free >= start:
                    start = gpu_free
                backward_start = start + forward
                compute_end = backward_start + backward
                sync_start = nic_free if nic_free >= compute_end else compute_end
                nic_free = sync_end[i] = sync_start + job_comm
                gpu_free = nic_free if hold_gpu else compute_end
                if rows is not None:
                    rows.append((job_id, t, start, backward_start, compute_end,
                                 sync_start, nic_free))
            if rows is not None:
                blocks.append((tuple(rows), 0, 0))
                rows.clear()
            t += 1
    return [gpu_free, nic_free, *sync_end]


def simulate(plan: SchedulePlan) -> Trace:
    """Run the plan under its policy; one trace row per job-iteration, in dispatch order.

    The trace holds ``_run``'s blocks, so a repeating regime costs one
    round however many rounds it lasts; ``trace.rows`` is built from them
    on first read.  It records ``plan`` as ``trace.plan`` (see
    ``validate_trace``).
    """
    blocks: list[Block] = []
    _run(plan.policy, plan.jobs, plan.comm_times, blocks)
    return Trace._of(tuple(blocks), plan)


def makespan(plan: SchedulePlan) -> int:
    """Exactly ``simulate(plan).makespan``, from the same loop without blocks.

    Whole periods are skipped rather than recorded, so it keeps no rows and
    no table, and a plan that repeats early costs the same at any budget.
    """
    return _run(plan.policy, plan.jobs, plan.comm_times, None)[1]


def validate_trace(trace: Trace, plan: SchedulePlan) -> list[str]:
    """Check that ``trace.rows`` equals ``simulate(plan).rows``; empty means it does.

    A trace ``simulate`` returned for a plan equal to ``plan`` passes without
    running the schedule again or reading its rows: ``_run`` depends only on
    the fields a plan compares, and traces are immutable.  Any other trace is
    compared with ``simulate(plan).rows``, and each of its rows must also be
    a ``str`` and six values whose ``type`` is ``int`` (``True == 1`` and
    ``0.0 == 0`` in Python, and neither writes as a JSON integer).  The
    messages name ``rows`` if it is not a tuple, else the first row that
    differs (``row k`` is ``trace.rows[k]``): missing, not a tuple of 7
    fields, past the schedule's end, its first field of another type (with
    the schedule's value), the wrong job or iteration, or each field that
    breaks README "Scheduling semantics" given the row's own earlier fields
    and the rows before it, which match the schedule.  Raises
    ``ConfigError`` unless it gets a ``Trace`` and a ``SchedulePlan``.
    """
    _check_type("trace", Trace, trace)
    _check_type("plan", SchedulePlan, plan)
    if trace.plan == plan:
        return []
    return _differences(trace.rows, simulate(plan).rows)


def _exact(row: Row) -> bool:
    """Whether ``row`` is a tuple of a ``str`` and six ``int``s, by exact type."""
    return isinstance(row, tuple) and tuple(map(type, row)) == _TYPES


def _differences(rows: tuple[Row, ...], expected: tuple[Row, ...]) -> list[str]:
    """The messages for the first row of ``rows`` that differs from ``expected``."""
    if not isinstance(rows, tuple):
        return [f"rows: {_a(rows)}, expected a tuple of rows"]
    k = next((k for k, (row, want) in enumerate(zip(rows, expected))
              if row != want or not _exact(row)), min(len(rows), len(expected)))
    if k == len(rows):
        if k == len(expected):
            return []
        return [f"row {k}: missing, expected {expected[k][0]} iteration {expected[k][1]}"]
    row = rows[k]
    shape = _misshapen(k, row)
    if shape:
        return [shape]
    if k == len(expected):
        return [f"row {k}: {row[0]} iteration {row[1]!r} after the plan's last row"]
    job_id, t, a, b, c, e, f = expected[k]
    for name, got, kind, value in zip(_NAMES, row, _TYPES, expected[k]):
        if type(got) is not kind:
            return [f"row {k} ({job_id} iteration {t}): {name} {got!r}, {_a(got)}, "
                    f"expected the {kind.__name__} {value!r}"]
    if row[:2] != (job_id, t):
        return [f"row {k}: {row[0]} iteration {row[1]}, expected {job_id} iteration {t}"]
    _, _, start, backward_start, compute_end, sync_start, _ = row
    nic_free = expected[k - 1][6] if k else 0
    want = (a, start + (b - a), backward_start + (c - b), max(nic_free, compute_end),
            sync_start + (f - e))
    return [f"row {k} ({job_id} iteration {t}): {name} {got}, expected {value}"
            for name, got, value in zip(_NAMES[2:], row[2:], want) if got != value]


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
