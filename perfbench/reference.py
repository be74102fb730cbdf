"""Independent reference for checking the program's outputs.

Works directly on scenario documents (the same JSON the program reads) and
computes the schedule as a plain recurrence over the dispatch order:

    crossover:  start = max(gpu_free, sync_end[job]);  sync = max(nic_free, compute_end)
    sequential: start = max(gpu_free, nic_free);       sync = compute_end

Jobs rotate in plan order and a finished job is skipped.  No event queue,
lanes or package code is involved, so a defect in the engine, the policies,
the cost models or the unit conversion shows up as a mismatch.  Span tuples
are (lane_id, job_id, phase, iteration, start_ns, end_ns) in trace order.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from pathlib import Path

GPU = "gpu0"
NIC = "nic0"
NS_PER_S = 10**9
SIM_STATS = ("makespan_ns", "gpu_idle_ns", "nic_busy_ns", "exposed_sync_ns")


def _exact(value, scale: int) -> int:
    scaled = Fraction(str(value)) * scale
    if scaled.denominator != 1:
        raise ValueError(f"{value!r} does not land on a whole unit")
    return int(scaled)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def comm_ns(grad_bytes: int, cluster: dict) -> int:
    """Ring allreduce 2(W-1)a + 2((W-1)/W)S/B or parameter server 2a + 2S/B."""
    bandwidth = _exact(cluster["bandwidth_gbps"], NS_PER_S) // 8
    latency = _exact(cluster.get("latency_us", 0), 1000)
    w = cluster["workers"]
    if cluster["architecture"] == "ring_allreduce":
        if w == 1:
            return 0
        return 2 * (w - 1) * latency + _ceil_div(2 * (w - 1) * grad_bytes * NS_PER_S,
                                                 w * bandwidth)
    return 2 * latency + _ceil_div(2 * grad_bytes * NS_PER_S, bandwidth)


def jobs_of(doc: dict, profiles: dict) -> list[tuple[str, int, int, int, int]]:
    """(job_id, forward_ns, backward_ns, comm_ns, iterations) in plan order."""
    override = doc.get("iterations_override")
    jobs = []
    for job in doc["jobs"]:
        if "profile" in job:
            p = profiles[job["profile"]]
            forward, backward = p["forward_ns"], p["backward_ns"]
            grad = sum(size for _, size in p["tensors"])
            iters = job.get("iterations", p["iterations"])
        else:
            forward = _exact(job["forward_ms"], 10**6)
            backward = _exact(job["backward_ms"], 10**6)
            grad = _exact(job["grad_mb"], 10**6)
            iters = job["iterations"]
        if override is not None:
            iters = override
        jobs.append((job["job_id"], forward, backward,
                     comm_ns(grad, doc["cluster"]), iters))
    return jobs


def load_profiles(path: Path) -> dict:
    return json.loads(path.read_text())["profiles"]


def schedule(jobs, policy: str) -> list[tuple]:
    """Spans of the rotation schedule under 'crossover' or 'sequential'."""
    overlap = policy == "crossover"
    gpu_free = nic_free = 0
    sync_end = {job[0]: 0 for job in jobs}
    left = [job for job in jobs if job[4] > 0]
    spans = []
    t = 0
    while left:
        t += 1
        for job_id, forward, backward, comm, _ in left:
            start = max(gpu_free, sync_end[job_id] if overlap else nic_free)
            mid, gpu_free = start + forward, start + forward + backward
            sync_start = max(nic_free, gpu_free)
            nic_free = sync_end[job_id] = sync_start + comm
            spans.append((GPU, job_id, "forward", t, start, mid))
            spans.append((GPU, job_id, "backward", t, mid, gpu_free))
            spans.append((NIC, job_id, "sync", t, sync_start, nic_free))
        left = [job for job in left if job[4] > t]
    return spans


def sim_stats(spans) -> dict[str, int]:
    """Simulated (not host) statistics of one trace, in exact nanoseconds.

    spans may be any iterable of span tuples; it is read once.  gpu_idle is
    makespan minus GPU busy time; exposed_sync is NIC busy time during which
    the GPU computes nothing.
    """
    gpu, nic = [], []
    for lane, _, _, _, start, end in spans:
        (gpu if lane == GPU else nic).append((start, end))
    gpu.sort()
    nic.sort()
    makespan = max((end for _, end in gpu + nic), default=0)
    gpu_busy = sum(e - b for b, e in gpu)
    nic_busy = sum(e - b for b, e in nic)
    hidden = 0
    i = 0
    for b, e in nic:
        while i < len(gpu) and gpu[i][1] <= b:
            i += 1
        k = i
        while k < len(gpu) and gpu[k][0] < e:
            hidden += min(e, gpu[k][1]) - max(b, gpu[k][0])
            k += 1
    return {"makespan_ns": makespan, "gpu_idle_ns": makespan - gpu_busy,
            "nic_busy_ns": nic_busy, "exposed_sync_ns": nic_busy - hidden}


def metrics_doc(spans, doc: dict, policy: str, speedup: Fraction | None = None) -> dict:
    """The metrics report ('colosim.metrics/v1' JSON) the spans must produce."""
    makespan = max((s[5] for s in spans), default=0)
    compute = sum(s[5] - s[4] for s in spans if s[2] != "sync")
    network = sum(s[5] - s[4] for s in spans if s[2] == "sync")
    completed = {job["job_id"]: 0 for job in doc["jobs"]}
    starts: dict[str, list[int]] = {job_id: [] for job_id in completed}
    for s in spans:
        if s[2] == "sync":
            completed[s[1]] += 1
        elif s[2] == "forward":
            starts[s[1]].append(s[4])

    def period(xs: list[int]) -> int | None:
        if len(xs) < 2:
            return None
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        q = len(gaps) // 4
        return int(statistics.median_low(gaps[q:len(gaps) - q]))

    def frac(x: Fraction | None) -> str | None:
        return None if x is None else str(x)

    ratio = (lambda n: Fraction(n, makespan)) if makespan else (lambda n: Fraction(0))
    return {
        "format": "colosim.metrics/v1",
        "scenario": doc["name"],
        "policy": policy,
        "makespan_ns": makespan,
        "per_job": {job_id: {"iterations": completed[job_id],
                             "period_ns": period(starts[job_id])}
                    for job_id in completed},
        "gpu_utilization": frac(ratio(compute)),
        "nic_utilization": frac(ratio(network)),
        "aggregate_throughput_per_s": frac(ratio(sum(completed.values()) * NS_PER_S)),
        "speedup_vs_baseline": frac(speedup),
    }


def sweep_speedup(rho: float) -> float:
    """README closed form for homogeneous jobs: (1 + rho) / max(1, rho)."""
    return (1 + rho) / max(1.0, rho)
