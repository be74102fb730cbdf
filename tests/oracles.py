"""Independent reference implementations used to check the real code paths.

These stay deliberately separate from the package: the schedule enumerators
walk a rotation cursor one dispatch at a time (the package iterates rounds),
the gradient check is central finite differences, the trace serializers
are the dict-per-record ``json.dumps(indent=2)`` documents that define the
byte formats, built from ``trace.rows`` without the package's span view,
the sync costs are the two alpha-beta formulas written
out per architecture with a divmod ceiling, and the SGD mini-batch draw
makes a fresh generator on every call (the package caches its draws).
``fixture_tensor_sizes`` reads the per-tensor inventories of the bundled
profiles straight from the data file, for the fusion counterfactual.  Span
tuples are (lane_id, job_id, phase, iteration, start, end).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

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


def finite_difference_gradient(f, params: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(params)
    for k in range(params.size):
        bump = np.zeros_like(params)
        bump[k] = step
        grad[k] = (f(params + bump) - f(params - bump)) / (2.0 * step)
    return grad


def batch_indices_reference(rng_seed: int, iteration: int, worker_index: int,
                            dataset_size: int, batch_size: int) -> np.ndarray:
    """One worker's mini-batch indices, drawn from a fresh generator every call."""
    return np.random.default_rng([rng_seed, 1, iteration, worker_index]).integers(
        0, dataset_size, size=batch_size)


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
