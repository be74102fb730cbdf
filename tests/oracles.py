"""Independent reference implementations used to check the real code paths.

These stay deliberately separate from the package: the schedule enumerators
walk a rotation cursor one dispatch at a time (the package iterates rounds),
the gradient check is central finite differences of ``loss_value``, the
mean loss the package never computes, the trace serializers
are the dict-per-record ``json.dumps(indent=2)`` documents that define the
byte formats, built from ``trace.rows`` without the package's span view,
and so is ``metrics_json_reference`` (the package fills a text template),
the sync costs are the two alpha-beta formulas written
out per architecture with a divmod ceiling, the SGD mini-batch draw makes a
fresh generator and draws a worker's whole 16-iteration block on every call
(the package caches each worker's block), and the
worker-averaged gradient loops over workers (the package batches them, and
trains every lane in lockstep).  ``run_isolated`` is the plain
synchronous-SGD reference trajectory that the pinned grid digest hashes, and
``replay_reference`` replays a trace's rows one at a time through a FIFO of
pending updates; both step with those draws and that gradient, gather
``x[idx]`` themselves and update ``p - LEARNING_RATE * g`` in ``sgd_step``,
one ``TrainingState`` at a time (the package keeps each lane's trajectory in
one array).  ``replay_reads_reference`` reads the same FIFOs a row at a time
without training (the package reads a repeated round's landings once per
block).
``fixture_tensor_sizes`` reads the per-tensor inventories of the bundled
profiles straight from the data file, for the fusion counterfactual.
``scaled_int_reference`` converts a config number through ``Fraction`` (the
package splits the decimal literal into integers).
``steady_period_reference`` walks every row of a trace (the package reads a
schedule's blocks), and ``expand_blocks`` writes out a schedule's blocks a
row at a time (the package builds a chunk's copies a column at a time).
``max_cycle_mean`` runs Karp's algorithm over the
crossover rotation's timed event graph (the package states the period in
closed form), and ``max_plus_state`` raises each regime's one-round max-plus
matrix to its round count by repeated squaring (the package dispatches
rounds and skips repeats).  ``sweep_reference`` prices each sweep point with
``Fraction`` ratios and the makespans of a sequential and a crossover plan
(the package sums the sequential makespan and uses integer ratios).  Span
tuples are (lane_id, job_id, phase, iteration, start, end).
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from colosim.comm import Architecture
from colosim.equivalence import (BATCH_SIZE, DATASET_SIZE, LEARNING_RATE, LossKind,
                                  initial_parameters, make_dataset)
from colosim.errors import ConfigError
from colosim.scenario import _INT_LIMIT, _brief
from colosim.scheduler import Policy, SchedulePlan, makespan

GPU = "gpu0"
NIC = "nic0"

# job tuples: (job_id, forward, backward, comm, iterations)


def _next_with_work(jobs, done, cursor):
    n = len(jobs)
    for k in range(n):
        probe = (cursor + k) % n
        if done[jobs[probe][0]] < jobs[probe][4]:
            return probe
    return None


def brute_crossover(jobs):
    """Recurrence form of the overlapped rotation schedule."""
    gpu_free = 0
    nic_free = 0
    sync_end = {j[0]: 0 for j in jobs}
    done = {j[0]: 0 for j in jobs}
    spans = []
    cursor = 0
    remaining = sum(j[4] for j in jobs)
    while remaining:
        probe = _next_with_work(jobs, done, cursor)
        job_id, fwd, bwd, comm, _ = jobs[probe]
        t = done[job_id] + 1
        dep = sync_end[job_id] if t > 1 else 0
        start = max(gpu_free, dep)
        spans.append((GPU, job_id, "forward", t, start, start + fwd))
        spans.append((GPU, job_id, "backward", t, start + fwd, start + fwd + bwd))
        gpu_free = start + fwd + bwd
        s_start = max(nic_free, gpu_free)
        spans.append((NIC, job_id, "sync", t, s_start, s_start + comm))
        nic_free = s_start + comm
        sync_end[job_id] = nic_free
        done[job_id] = t
        remaining -= 1
        cursor = (probe + 1) % len(jobs)
    return spans, max((s[5] for s in spans), default=0)


def brute_sequential(jobs):
    """Recurrence form of the non-overlapped round-robin baseline."""
    now = 0
    done = {j[0]: 0 for j in jobs}
    spans = []
    cursor = 0
    remaining = sum(j[4] for j in jobs)
    while remaining:
        probe = _next_with_work(jobs, done, cursor)
        job_id, fwd, bwd, comm, _ = jobs[probe]
        t = done[job_id] + 1
        spans.append((GPU, job_id, "forward", t, now, now + fwd))
        spans.append((GPU, job_id, "backward", t, now + fwd, now + fwd + bwd))
        spans.append((NIC, job_id, "sync", t, now + fwd + bwd, now + fwd + bwd + comm))
        now += fwd + bwd + comm
        done[job_id] = t
        remaining -= 1
        cursor = (probe + 1) % len(jobs)
    return spans, max((s[5] for s in spans), default=0)


def crossover_cycle(jobs, max_rotations=10_000) -> Fraction:
    """Exact asymptotic time per full rotation for the overlapped schedule.

    Runs the recurrence rotation by rotation (iteration budgets ignored) and
    detects the periodic regime: when the lane/sync offsets relative to the
    GPU clock repeat, the advance per rotation is exact.
    """
    gpu_free = 0
    nic_free = 0
    sync_end = {j[0]: 0 for j in jobs}
    seen: dict[tuple, tuple[int, int]] = {}
    for rotation in range(1, max_rotations + 1):
        for job_id, fwd, bwd, comm, _ in jobs:
            dep = sync_end[job_id] if rotation > 1 else 0
            start = max(gpu_free, dep)
            gpu_free = start + fwd + bwd
            s_start = max(nic_free, gpu_free)
            nic_free = s_start + comm
            sync_end[job_id] = nic_free
        key = tuple(x - gpu_free for x in (nic_free, *sync_end.values()))
        if key in seen:
            prev_rotation, prev_gpu = seen[key]
            return Fraction(gpu_free - prev_gpu, rotation - prev_rotation)
        seen[key] = (rotation, gpu_free)
    raise AssertionError("no periodic regime within the rotation budget")


def max_cycle_mean(jobs) -> Fraction:
    """Karp's maximum cycle mean of the crossover rotation's timed event graph.

    The graph is the one the ``scheduler.py`` docstring writes out.  Node
    ``2i`` is job i's compute start s_i and ``2i + 1`` its sync start n_i;
    the arcs s_i -> s_i+1 and s_i -> n_i weigh comp_i, n_i -> n_i+1 and
    n_i -> s_i weigh comm_i, and n_i -> s_i and the arcs from the last job
    to the first cross into the next rotation.  ``walks[k][v]`` is the
    heaviest walk that crosses k rotations and ends at v, from a start of 0
    at every node: one crossing arc, then arcs within the rotation, which
    all lead to a higher node.  The mean per rotation is
    ``max_v min_k (walks[n][v] - walks[k][v]) / (n - k)`` over ``k < n``,
    with ``n`` the number of nodes (R. M. Karp, "A characterization of the
    minimum cycle mean in a digraph", Discrete Mathematics, 1978).
    """
    n_jobs = len(jobs)
    arcs = []  # (tail, head, weight, crosses into the next rotation)
    for i, (_, fwd, bwd, comm, _) in enumerate(jobs):
        nxt = (i + 1) % n_jobs
        arcs += [(2 * i, 2 * nxt, fwd + bwd, nxt == 0), (2 * i, 2 * i + 1, fwd + bwd, False),
                 (2 * i + 1, 2 * nxt + 1, comm, nxt == 0), (2 * i + 1, 2 * i, comm, True)]
    # crossing arcs first, then the others by tail, so each tail is final when read
    arcs.sort(key=lambda arc: (not arc[3], arc[0]))
    n = 2 * n_jobs
    walks = [[0] * n]
    for _ in range(n):
        walk = [float("-inf")] * n
        for tail, head, weight, crosses in arcs:
            walk[head] = max(walk[head], (walks[-1] if crosses else walk)[tail] + weight)
        walks.append(walk)
    return max(min(Fraction(walks[n][v] - walks[k][v], n - k) for k in range(n))
               for v in range(n))


def _max_plus_product(a, b):
    """The max-plus matrix product: entry (r, k) is the max over j of a[r][j] + b[j][k]."""
    return [[max(x + y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def max_plus_state(jobs, policy) -> list:
    """The state ``[gpu_free, nic_free, sync_end_1, ..., sync_end_n]`` after the last round.

    While the set of unfinished jobs is fixed (a regime), one round maps the
    state max-plus linearly: each new coordinate is the max over the old
    coordinates of old plus a constant (-inf where it does not depend on
    it).  The round's matrix comes from running the round once on symbolic
    coordinates, each a row of those constants; a regime of ``m`` rounds is
    the matrix's ``m``-th max-plus power, by repeated squaring, so any budget
    takes O(n^3 log T) steps (Baccelli, Cohen, Olsder and Quadrat,
    *Synchronization and Linearity*, 1992).  The state starts at zero.
    """
    size = len(jobs) + 2
    identity = [[0 if r == k else float("-inf") for k in range(size)] for r in range(size)]
    state = [0] * size
    t = 1
    for until in sorted({job[4] for job in jobs}):
        x = identity
        for i, (_, fwd, bwd, comm, iterations) in enumerate(jobs):
            if iterations >= t:
                compute_end = [max(g, s) + fwd + bwd for g, s in zip(x[0], x[2 + i])]
                sync_end = [max(nic, c) + comm for nic, c in zip(x[1], compute_end)]
                gpu_free = sync_end if policy is Policy.SEQUENTIAL else compute_end
                x = [gpu_free, sync_end, *x[2:2 + i], sync_end, *x[3 + i:]]
        power, rounds = identity, until + 1 - t
        while rounds:
            if rounds & 1:
                power = _max_plus_product(power, x)
            x, rounds = _max_plus_product(x, x), rounds >> 1
        state = [max(m + v for m, v in zip(row, state)) for row in power]
        t = until + 1
    return state


def loss_value(loss, parameters: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean loss over every row of ``x``, a matrix or a stack of worker batches."""
    z = x @ parameters
    if loss is LossKind.LEAST_SQUARES:
        r = z - y
        return float(0.5 * np.mean(r * r))
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def finite_difference_gradient(f, params: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(params)
    for k in range(params.size):
        bump = np.zeros_like(params)
        bump[k] = step
        grad[k] = (f(params + bump) - f(params - bump)) / (2.0 * step)
    return grad


# Iterations whose mini-batches one generator draws, per job seed and worker.
DRAW_BLOCK = 16


def batch_indices_reference(rng_seed: int, iteration: int, worker_index: int,
                            dataset_size: int, batch_size: int) -> np.ndarray:
    """One worker's mini-batch indices for one iteration.

    A fresh generator, keyed by (seed, block, worker), draws the worker's
    whole block of ``DRAW_BLOCK`` iterations on every call; the iteration's
    row of it is returned.
    """
    block, row = divmod(iteration - 1, DRAW_BLOCK)
    rng = np.random.default_rng([rng_seed, 1, block, worker_index])
    return rng.integers(0, dataset_size, size=(DRAW_BLOCK, batch_size))[row]


def averaged_gradient_reference(loss, parameters, x, y) -> np.ndarray:
    """The worker-averaged gradient as a loop over the stack's workers.

    Each worker's 2-D mean gradient ``x_w.T @ r_w / batch`` is added to a
    zero vector left to right, and the sum is divided by the worker count.
    """
    total = np.zeros_like(parameters)
    for xw, yw in zip(x, y):
        z = xw @ parameters
        if loss is LossKind.LEAST_SQUARES:
            residual = z - yw
        else:
            residual = 0.5 * (1.0 + np.tanh(0.5 * z)) - yw
        total = total + xw.T @ residual / len(yw)
    return total / len(x)


@dataclasses.dataclass
class TrainingState:
    """Model parameters after ``iteration`` completed updates."""

    parameters: np.ndarray
    iteration: int


def initial_state(config) -> TrainingState:
    """The config's parameters before any update."""
    return TrainingState(initial_parameters(config), 0)


def sgd_step(state: TrainingState, averaged: np.ndarray) -> TrainingState:
    """One update: ``p - LEARNING_RATE * g``, and one more completed iteration."""
    return TrainingState(state.parameters - LEARNING_RATE * averaged, state.iteration + 1)


def reference_gradient(config, parameters: np.ndarray, iteration: int,
                       workers: int) -> np.ndarray:
    """The averaged gradient at ``parameters`` over the workers' batches of ``iteration``."""
    x, y = make_dataset(config)
    idx = np.stack([batch_indices_reference(config.rng_seed, iteration, w,
                                            DATASET_SIZE, BATCH_SIZE) for w in range(workers)])
    return averaged_gradient_reference(config.loss, parameters, x[idx], y[idx])


def run_isolated(config, workers: int, iterations: int) -> list:
    """Plain synchronous SGD with no interleaving: the state after each update."""
    state = initial_state(config)
    trajectory = []
    for t in range(1, iterations + 1):
        state = sgd_step(state, reference_gradient(config, state.parameters, t, workers))
        trajectory.append(state)
    return trajectory


def replay_reads_reference(plan, rows) -> list[list[int]]:
    """Each job's reads of ``rows``, read one at a time through a FIFO per job.

    At a row's start, the job's queued sync ends that are no later land,
    oldest first; the row then reads how many of the job's computes so far
    have landed and queues its sync end.  The package reads a repeated
    round's landings once per block.
    """
    index = {job.job_id: j for j, job in enumerate(plan.jobs)}
    reads = [[] for _ in plan.jobs]
    pending = [[] for _ in plan.jobs]
    for job_id, _, start, *_, sync_end in rows:
        j = index[job_id]
        while pending[j] and pending[j][0] <= start:
            pending[j].pop(0)
        reads[j].append(len(reads[j]) - len(pending[j]))
        pending[j].append(sync_end)
    return reads


def replay_reference(configs, plan, rows) -> list:
    """``(job index, state)`` as each update lands, replaying ``rows`` one by one.

    A job's compute k queues the gradient of iteration k's batches at its
    parameters of the moment, until the row's sync end.  At each row's start
    the job first applies, oldest first, every queued update whose sync has
    ended by then; after the last row, every job applies what is still queued.
    """
    index = {job.job_id: j for j, job in enumerate(plan.jobs)}
    states = [initial_state(cfg) for cfg in configs]
    computes = [0] * len(configs)
    pending = [[] for _ in configs]  # (sync_end, gradient), oldest first
    landed = []

    def land(j):
        states[j] = sgd_step(states[j], pending[j].pop(0)[1])
        landed.append((j, states[j]))

    for job_id, _, start, *_, sync_end in rows:
        j = index[job_id]
        while pending[j] and pending[j][0][0] <= start:
            land(j)
        computes[j] += 1
        pending[j].append((sync_end, reference_gradient(configs[j], states[j].parameters,
                                                        computes[j], plan.cluster.workers)))
    for j in range(len(configs)):
        while pending[j]:
            land(j)
    return landed


def neutrality_reference(configs, plan, rows) -> tuple:
    """``(max_abs_deviation, first_divergence)`` of ``replay_reference`` against ``run_isolated``.

    Job j's replayed states, in landing order, are its iterations 1, 2, ...;
    each is compared coordinate by coordinate with the isolated state of that
    iteration.  An iteration that only one side reaches diverges at
    coordinate 0.  The lowest ``(job index, iteration, coordinate)`` wins.
    """
    replayed = [[] for _ in configs]
    for j, state in replay_reference(configs, plan, rows):
        replayed[j].append(state.parameters)
    max_dev, found = 0.0, []
    for j, (config, job) in enumerate(zip(configs, plan.jobs)):
        isolated = [s.parameters for s in run_isolated(config, plan.cluster.workers,
                                                       job.iterations)]
        for t, (a, b) in enumerate(zip(replayed[j], isolated), start=1):
            for c, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    max_dev = max(max_dev, float(abs(x - y)))
                    found.append((j, t, c))
        if len(replayed[j]) != len(isolated):
            found.append((j, min(len(replayed[j]), len(isolated)) + 1, 0))
    return max_dev, min(found, default=None)


def _ceil(num: int, den: int) -> int:
    q, r = divmod(num, den)
    return q + (r > 0)


def ring_allreduce_ns(size: int, workers: int, bandwidth: int, latency: int) -> int:
    """2(W-1)a + ceil(2(W-1) S 1e9 / (W B)): 0 for a single worker."""
    return 2 * (workers - 1) * latency + _ceil(2 * (workers - 1) * size * 10**9,
                                               workers * bandwidth)


def parameter_server_ns(size: int, bandwidth: int, latency: int) -> int:
    """2a + ceil(2 S 1e9 / B): push then pull through the worker NIC."""
    return 2 * latency + _ceil(2 * size * 10**9, bandwidth)


def fixture_tensor_sizes(name: str) -> list[int]:
    """Per-tensor byte sizes of a bundled profile, as listed in profiles.json."""
    path = Path(__file__).resolve().parent.parent / "src/colosim/data/profiles.json"
    return [size for _, size in json.loads(path.read_text())["profiles"][name]["tensors"]]


def spans_from_trace(trace):
    """Engine trace -> the tuple form used by the brute enumerators.

    Each row (job_id, iteration, start, backward_start, compute_end,
    sync_start, sync_end) becomes its forward and backward spans on the GPU
    lane and its sync span on the NIC lane, read from the row tuples alone.
    """
    spans = []
    for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows:
        spans.append((GPU, job_id, "forward", t, start, backward_start))
        spans.append((GPU, job_id, "backward", t, backward_start, compute_end))
        spans.append((NIC, job_id, "sync", t, sync_start, sync_end))
    return spans


def expand_blocks(blocks) -> tuple:
    """The rows ``blocks`` stand for, one row at a time.

    A block ``(rows, shift, repeats)`` is its rows followed by ``repeats``
    copies of them; copy ``k`` adds ``k`` to each row's iteration and
    ``k * shift`` to each of its five times.
    """
    out = []
    for rows, shift, repeats in blocks:
        for k in range(repeats + 1):
            for job_id, iteration, *times in rows:
                out.append((job_id, iteration + k, *[x + k * shift for x in times]))
    return tuple(out)


def metrics_json_reference(m) -> str:
    """The metrics.json document as json.dumps writes it, from a nested dict."""
    def text(x):
        return None if x is None else str(x)

    doc = {
        "format": "colosim.metrics/v1",
        "scenario": m.scenario,
        "policy": m.policy,
        "makespan_ns": m.makespan,
        "per_job": {
            job_id: {
                "iterations": iterations,
                "period_ns": m.per_job_iteration_period.get(job_id),
            }
            for job_id, iterations in m.per_job_iterations.items()
        },
        "gpu_utilization": text(m.gpu_utilization),
        "nic_utilization": text(m.nic_utilization),
        "aggregate_throughput_per_s": text(m.aggregate_throughput),
        "speedup_vs_baseline": text(m.speedup_vs_baseline),
    }
    return json.dumps(doc, indent=2) + "\n"


def steady_period_reference(rows) -> dict:
    """Each job's sampled period, walked row by row.

    The lower median of the gaps between the job's consecutive compute
    starts over gap positions ``[k//4, k - k//4)`` of its ``k`` gaps, and
    None for a job with fewer than two starts.
    """
    starts: dict = {}
    for job_id, _, start, *_ in rows:
        starts.setdefault(job_id, []).append(start)
    periods = {}
    for job_id, job_starts in starts.items():
        gaps = [b - a for a, b in zip(job_starts, job_starts[1:])]
        k = len(gaps)
        window = sorted(gaps[k // 4: k - k // 4])
        periods[job_id] = window[(len(window) - 1) // 2] if window else None
    return periods


def trace_to_json_reference(trace) -> str:
    """The trace.json document as json.dumps writes it, one dict per span."""
    records = [
        {
            "lane_id": lane_id,
            "job_id": job_id,
            "phase": phase,
            "iteration": iteration,
            "start_ns": start,
            "end_ns": end,
        }
        for lane_id, job_id, phase, iteration, start, end in spans_from_trace(trace)
    ]
    return json.dumps(records, indent=2) + "\n"


def trace_to_chrome_json_reference(trace) -> str:
    """The Chrome trace-event document as json.dumps writes it."""
    spans = spans_from_trace(trace)
    lane_ids = sorted({s[0] for s in spans})
    tid = {lane_id: i for i, lane_id in enumerate(lane_ids)}
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid[lane_id],
            "args": {"name": lane_id},
        }
        for lane_id in lane_ids
    ]
    for lane_id, job_id, phase, iteration, start, end in spans:
        events.append({
            "name": f"{job_id} {phase} t{iteration}",
            "ph": "X",
            "ts": start / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": 0,
            "tid": tid[lane_id],
            "args": {"job": job_id, "iteration": iteration},
        })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=2) + "\n"


def scaled_int_reference(value, num: int, den: int, field: str, minimum: int) -> int:
    """``scenario.scaled_int`` by exact rational arithmetic on ``str(value)``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {_brief.repr(value)}")
    if isinstance(value, int) and abs(value) >= _INT_LIMIT:
        # every scale is >= 1; the message does not quote a value this long
        raise ConfigError(f"{field}: an integer of magnitude 2^63 or more overflows "
                          f"the internal integer range")
    try:
        exact = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{field}: {value!r} is not a finite number") from None
    scaled = exact * num / den
    if scaled.denominator != 1:
        raise ConfigError(
            f"{field}: {_brief.repr(value)} does not land on a whole internal unit "
            f"(scale {num}/{den})")
    n = int(scaled)
    if not -_INT_LIMIT < n < _INT_LIMIT:
        raise ConfigError(
            f"{field}: {_brief.repr(value)} overflows the internal integer range")
    if n < minimum:
        raise ConfigError(f"{field}: must be {'> 0' if minimum else '>= 0'}")
    return n


def sweep_reference(plan, lo: Fraction, hi: Fraction, steps: int) -> str:
    """The ``sweep.csv`` text of ``colosim sweep`` on ``plan``'s homogeneous jobs.

    Point k is the ``Fraction`` ``lo + k * (hi - lo) / (steps - 1)``, its
    payload rounds the exact byte count for a sync of ``rho * comp``, and its
    speedup is the ratio of the makespans of a sequential and a crossover
    plan.  Raises the CLI's ``ConfigError`` for a ring of one worker, an
    unreachable ratio or a plan past 2^63.
    """
    cluster = plan.cluster
    w, alpha, bandwidth = (cluster.workers, cluster.latency_per_message,
                           cluster.bandwidth_bytes_per_sec)
    if cluster.architecture is Architecture.RING_ALLREDUCE:
        latency, per_byte = 2 * (w - 1) * alpha, Fraction(2 * (w - 1) * 10**9, w * bandwidth)
    else:
        latency, per_byte = 2 * alpha, Fraction(2 * 10**9, bandwidth)
    if per_byte == 0:
        raise ConfigError("sweep: ring_allreduce needs workers >= 2 to have "
                          "any communication to scale")
    comp = plan.jobs[0].forward_time + plan.jobs[0].backward_time
    lines = ["rho,speedup"]
    for k in range(steps):
        rho = lo + k * (hi - lo) / (steps - 1)
        target = rho * comp
        if target < latency:
            raise ConfigError(
                f"sweep: ratio {float(rho):g} unreachable, per-message latency alone "
                f"is {latency} ns but the target sync time is {float(target):g} ns")
        jobs = tuple(dataclasses.replace(j, grad_bytes=round((target - latency) / per_byte))
                     for j in plan.jobs)
        speedup = Fraction(makespan(SchedulePlan(Policy.SEQUENTIAL, jobs, cluster)),
                           makespan(SchedulePlan(Policy.CROSSOVER, jobs, cluster)))
        lines.append(f"{float(rho)!r},{float(speedup)!r}")
    return "\n".join(lines) + "\n"
