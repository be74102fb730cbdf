"""Independent reference implementations used to check the real code paths.

These stay deliberately separate from the package: the schedule enumerators
walk a rotation cursor one dispatch at a time (the package iterates rounds),
the gradient check is central finite differences, the trace serializers
are the dict-per-record ``json.dumps(indent=2)`` documents that define the
byte formats, the sync costs are the two alpha-beta formulas written
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
    """Engine trace -> the tuple form used by the brute enumerators."""
    return [(s.lane_id, s.job_id, s.phase.value, s.iteration, s.start, s.end)
            for s in trace.spans]


def trace_to_json_reference(trace) -> str:
    """The trace.json document as json.dumps writes it, one dict per span."""
    records = [
        {
            "lane_id": s.lane_id,
            "job_id": s.job_id,
            "phase": s.phase.value,
            "iteration": s.iteration,
            "start_ns": s.start,
            "end_ns": s.end,
        }
        for s in trace.spans
    ]
    return json.dumps(records, indent=2) + "\n"


def trace_to_chrome_json_reference(trace) -> str:
    """The Chrome trace-event document as json.dumps writes it."""
    lane_ids = sorted({s.lane_id for s in trace.spans})
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
    for s in trace.spans:
        events.append({
            "name": f"{s.job_id} {s.phase.value} t{s.iteration}",
            "ph": "X",
            "ts": s.start / 1000.0,
            "dur": (s.end - s.start) / 1000.0,
            "pid": 0,
            "tid": tid[s.lane_id],
            "args": {"job": s.job_id, "iteration": s.iteration},
        })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=2) + "\n"
