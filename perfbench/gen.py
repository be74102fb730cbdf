"""Seeded scenario generation for the benchmark workloads.

Every generated scenario is a plain dict in the documented scenario-file
format; the benchmark writes it to disk and the program only ever sees the
file.  Within a workload the total simulated iteration count of each
scenario is fixed, so host cost per operation depends on the scenario's
shape (job mix, budgets, policy, architecture) and not on a seed-dependent
size; that keeps run-to-run figures comparable across seeds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# export: heterogeneous 8-job plans with unequal budgets of about 500-1000.
EXPORT_PLANS = 12
EXPORT_JOBS = 8
EXPORT_TOTAL_ITERS = 8 * 750

# sweep: homogeneous plans with jobs x iterations fixed.
SWEEP_JOB_COUNTS = (2, 3, 4, 5, 6, 8)
SWEEP_JOB_ITERS = 1_000
SWEEP_STEPS = 20

# crowd: 64 jobs with Pareto-distributed budgets.
CROWD_PLANS = 8
CROWD_JOBS = 64
CROWD_TOTAL_ITERS = 10_000
CROWD_PARETO_ALPHA = 1.5
CROWD_MAX_FACTOR = 20

# sgd: equivalence iterations per operation, operations (seeds) per cycle.
SGD_ITERS = 60
SGD_SEEDS = 4

ARCHITECTURES = ("ring_allreduce", "parameter_server")
POLICIES = ("crossover", "sequential")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _milli(rng: random.Random, lo: int, hi: int) -> float:
    """A value in [lo, hi] with three decimals: whole ns from ms, bytes from MB."""
    return rng.randint(lo * 1000, hi * 1000) / 1000


def _cluster(rng: random.Random, architecture: str) -> dict:
    cluster = {
        "workers": rng.randint(2, 16),
        "gpus_per_worker": rng.choice((1, 4, 8)),
        "bandwidth_gbps": rng.choice((10, 25, 40, 100)),
        "latency_us": rng.randint(0, 20),
        "architecture": architecture,
    }
    if architecture == "parameter_server":
        cluster["ps_servers"] = rng.randint(1, 4)
    return cluster


def _normalize(weights: list[float], total: int) -> list[int]:
    """Integer budgets >= 1 proportional to weights that sum exactly to total."""
    scale = total / sum(weights)
    budgets = [max(1, int(w * scale)) for w in weights]
    budgets[max(range(len(budgets)), key=budgets.__getitem__)] += total - sum(budgets)
    return budgets


def export_plans(seed: int) -> list[dict]:
    """Heterogeneous plans mixing both policies and both architectures."""
    plans = []
    for k in range(EXPORT_PLANS):
        rng = _rng("export", seed, k)
        budgets = _normalize([rng.uniform(500, 1_000) for _ in range(EXPORT_JOBS)],
                             EXPORT_TOTAL_ITERS)
        jobs = [
            {
                "job_id": f"x{k}-j{i}",
                "forward_ms": _milli(rng, 10, 60),
                "backward_ms": _milli(rng, 20, 120),
                "grad_mb": _milli(rng, 5, 500),
                "tensor_count": rng.randint(1, 50),
                "iterations": budget,
            }
            for i, budget in enumerate(budgets)
        ]
        plans.append({
            "name": f"export_{seed}_{k}",
            "policy": POLICIES[k % 2],
            "cluster": _cluster(rng, ARCHITECTURES[(k // 2) % 2]),
            "jobs": jobs,
        })
    return plans


def sweep_plans(seed: int) -> list[tuple[dict, float, float]]:
    """Homogeneous plans with a ratio range that crosses 1: (doc, lo, hi).

    Every seed covers the same job counts, and the ranges put about half of
    the points in each regime, so a cycle's mix of work is the same for
    every seed.
    """
    plans = []
    job_counts = list(SWEEP_JOB_COUNTS)
    _rng("sweep", seed, -1).shuffle(job_counts)
    for k, n_jobs in enumerate(job_counts):
        rng = _rng("sweep", seed, k)
        iters = SWEEP_JOB_ITERS // n_jobs
        forward, backward = _milli(rng, 10, 60), _milli(rng, 20, 120)
        jobs = [
            {"job_id": f"s{k}-j{i}", "forward_ms": forward, "backward_ms": backward,
             "grad_mb": 1, "tensor_count": 1, "iterations": iters}
            for i in range(n_jobs)
        ]
        cluster = _cluster(rng, ARCHITECTURES[k % 2])
        cluster["latency_us"] = rng.randint(0, 5)
        doc = {"name": f"sweep_{seed}_{k}", "policy": "crossover",
               "cluster": cluster, "jobs": jobs}
        lo = rng.randint(20, 40) / 100
        hi = rng.randint(180, 220) / 100
        plans.append((doc, lo, hi))
    return plans


def crowd_plans(seed: int) -> list[dict]:
    """64-job plans whose budgets follow a stratified Pareto distribution.

    Stratified quantiles keep the shape of the budget distribution the same
    for every seed; the seed decides which job gets which budget, so the
    order in which jobs run out (and the rotation skips them) changes.
    """
    plans = []
    for k in range(CROWD_PLANS):
        rng = _rng("crowd", seed, k)
        weights = [
            min(CROWD_MAX_FACTOR,
                (1 - (i + rng.random()) / CROWD_JOBS) ** (-1 / CROWD_PARETO_ALPHA))
            for i in range(CROWD_JOBS)
        ]
        rng.shuffle(weights)
        budgets = _normalize(weights, CROWD_TOTAL_ITERS)
        jobs = [
            {
                "job_id": f"c{k}-j{i:02d}",
                "forward_ms": _milli(rng, 5, 40),
                "backward_ms": _milli(rng, 10, 80),
                "grad_mb": _milli(rng, 1, 100),
                "tensor_count": rng.randint(1, 20),
                "iterations": budget,
            }
            for i, budget in enumerate(budgets)
        ]
        plans.append({
            "name": f"crowd_{seed}_{k}",
            "policy": "crossover",
            "cluster": _cluster(rng, ARCHITECTURES[k % 2]),
            "jobs": jobs,
        })
    return plans


def write_inputs(workload: str, seed: int, tmp: Path,
                 root: Path) -> list[tuple[Path, dict, dict]]:
    """Write the workload's scenario files; returns (path, document, op params).

    export also lists every bundled scenario in place, plus a sequential
    copy of golden_2jobs so both golden makespans are checked.
    """
    inputs: list[tuple[Path, dict, dict]] = []

    def write(doc: dict, params: dict | None = None) -> tuple[Path, dict, dict]:
        path = tmp / f"{doc['name']}_{doc['policy']}.json"
        path.write_text(json.dumps(doc, indent=1))
        return path, doc, params or {}

    if workload == "export":
        for path in sorted((root / "scenarios").glob("*.json")):
            doc = json.loads(path.read_text())
            inputs.append((path, doc, {"bundled": True}))
            if doc["name"] == "golden_2jobs":
                inputs.append(write(dict(doc, policy="sequential"), {"bundled": True}))
        inputs += [write(doc) for doc in export_plans(seed)]
    elif workload == "sweep":
        for doc, lo, hi in sweep_plans(seed):
            inputs.append(write(doc, {"ratio_min": lo, "ratio_max": hi,
                                      "steps": SWEEP_STEPS}))
    elif workload == "crowd":
        inputs += [write(doc) for doc in crowd_plans(seed)]
    return inputs
