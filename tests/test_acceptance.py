"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete.
"""

import functools
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from colosim.cli import main as cli_main
from colosim.comm import Architecture, ClusterSpec, comm_time
from colosim.engine import Phase, trace_to_json
from colosim.equivalence import LossKind, SgdConfig, check_neutrality, loss_gradient
from colosim.metrics import compare, measure
from colosim.scenario import load_config
from colosim.scheduler import Policy, SchedulePlan, simulate
from colosim.workload import JobProfile

from oracles import (brute_crossover, brute_sequential, crossover_cycle,
                     finite_difference_gradient, fixture_tensor_sizes, loss_value,
                     spans_from_trace)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Parameter-server at 2e9 B/s with zero latency: payload bytes == sync ns.
NS_CLUSTER = ClusterSpec(workers=2, bandwidth_bytes_per_sec=2_000_000_000,
                         architecture=Architecture.PARAMETER_SERVER)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [FAIL] {title}")
                raise
            print(f"criterion {number} [PASS] {title}")
        return wrapper
    return decorate


def ns_job(job_id, fwd, bwd, comm_ns, iterations):
    return JobProfile(job_id, fwd, bwd, comm_ns, iterations)


def ns_plan(policy, specs):
    return SchedulePlan(policy, tuple(ns_job(*s) for s in specs), NS_CLUSTER)


def homogeneous(policy, comp, comm, iterations, n_jobs=2):
    fwd = comp * 2 // 5
    specs = [(f"j{i}", fwd, comp - fwd, comm, iterations) for i in range(n_jobs)]
    return ns_plan(policy, specs)


@criterion(1, "full hiding for ratio <= 1: period == N*comp, no delayed compute")
def test_criterion_1_hiding_condition():
    comp, iterations, n_jobs = 1_000_000, 1000, 2
    slowest = 0.0
    for tenths in range(1, 11):
        comm = tenths * comp // 10
        plan = homogeneous(Policy.CROSSOVER, comp, comm, iterations)
        began = time.monotonic()
        trace = simulate(plan)
        slowest = max(slowest, time.monotonic() - began)

        metrics = measure(trace, plan)
        period = n_jobs * comp
        assert all(p == period for p in metrics.per_job_iteration_period.values()), \
            f"ratio {tenths / 10}: measured periods {metrics.per_job_iteration_period}"

        # every compute start sits exactly on the rotation grid: the NIC
        # never pushes one back
        for idx in range(n_jobs):
            starts = sorted(s.start for s in trace.spans
                            if s.job_id == f"j{idx}" and s.phase is Phase.FORWARD)
            assert starts == [idx * comp + t * period for t in range(iterations)]
    assert slowest < 1.0, f"T=1000 simulation took {slowest:.3f}s"


@criterion(2, "speedup band: ratios 0.10-0.20 give 1.09x-1.21x, within 1% of closed form")
def test_criterion_2_speedup_band():
    comp, iterations = 1_000_000, 1000
    for rho in (Fraction(1, 10), Fraction(3, 20), Fraction(1, 5)):
        comm = int(rho * comp)
        cross = simulate(homogeneous(Policy.CROSSOVER, comp, comm, iterations))
        seq = simulate(homogeneous(Policy.SEQUENTIAL, comp, comm, iterations))
        speedup = Fraction(seq.makespan, cross.makespan)
        assert Fraction(109, 100) <= speedup <= Fraction(121, 100), \
            f"rho={rho}: speedup {float(speedup):.4f} outside [1.09, 1.21]"
        closed = 1 + rho  # (1 + rho) / max(1, rho) with rho <= 1
        assert abs(speedup / closed - 1) <= Fraction(1, 100), \
            f"rho={rho}: {float(speedup):.4f} vs closed form {float(closed):.4f}"

    # the bundled calibrated scenario (ratio 3/20) through the config path
    scenario = load_config(SCENARIO_DIR / "speedup_band.json")
    plan_x = scenario.plan()
    plan_s = SchedulePlan(Policy.SEQUENTIAL, plan_x.jobs, plan_x.cluster)
    speedup = Fraction(simulate(plan_s).makespan,
                       simulate(plan_x).makespan)
    assert Fraction(109, 100) <= speedup <= Fraction(121, 100)
    assert abs(speedup / Fraction(23, 20) - 1) <= Fraction(1, 100)


GOLDEN_SPANS = [
    ("gpu0", "j1", "forward", 1, 0, 1), ("gpu0", "j1", "backward", 1, 1, 2),
    ("nic0", "j1", "sync", 1, 2, 3),
    ("gpu0", "j2", "forward", 1, 2, 3), ("gpu0", "j2", "backward", 1, 3, 4),
    ("nic0", "j2", "sync", 1, 4, 5),
    ("gpu0", "j1", "forward", 2, 4, 5), ("gpu0", "j1", "backward", 2, 5, 6),
    ("nic0", "j1", "sync", 2, 6, 7),
    ("gpu0", "j2", "forward", 2, 6, 7), ("gpu0", "j2", "backward", 2, 7, 8),
    ("nic0", "j2", "sync", 2, 8, 9),
    ("gpu0", "j1", "forward", 3, 8, 9), ("gpu0", "j1", "backward", 3, 9, 10),
    ("nic0", "j1", "sync", 3, 10, 11),
    ("gpu0", "j2", "forward", 3, 10, 11), ("gpu0", "j2", "backward", 3, 11, 12),
    ("nic0", "j2", "sync", 3, 12, 13),
]


@criterion(3, "golden two-job trace: makespan 13 vs 18, speedup 18/13, reproducible")
def test_criterion_3_golden_trace():
    scenario = load_config(SCENARIO_DIR / "golden_2jobs.json")
    plan_x = scenario.plan()
    plan_s = SchedulePlan(Policy.SEQUENTIAL, plan_x.jobs, plan_x.cluster)

    trace_x = simulate(plan_x)
    trace_s = simulate(plan_s)
    assert spans_from_trace(trace_x) == GOLDEN_SPANS
    assert (trace_x.makespan, trace_s.makespan) == (13, 18)

    speedup = compare(measure(trace_x, plan_x, scenario.name),
                      measure(trace_s, plan_s, scenario.name)).speedup_vs_baseline
    assert speedup == Fraction(18, 13)

    again = simulate(scenario.plan())
    assert trace_to_json(again) == trace_to_json(trace_x)


@criterion(4, "boundary semantics: T syncs per job, bypassed first iteration, final drain")
def test_criterion_4_boundary_semantics():
    cases = [
        [("j1", 1, 1, 1, 3), ("j2", 1, 1, 1, 3)],
        [("a", 2, 3, 7, 4), ("b", 1, 4, 2, 6), ("c", 3, 2, 0, 2)],
        [("solo", 5, 5, 9, 5)],
    ]
    for specs in cases:
        trace = simulate(ns_plan(Policy.CROSSOVER, specs))
        assert spans_from_trace(trace) == brute_crossover(specs)[0]
        fill = 0
        for job_id, fwd, bwd, _, iterations in specs:
            syncs = [s for s in trace.spans
                     if s.job_id == job_id and s.phase is Phase.SYNC]
            assert len(syncs) == iterations, f"{job_id}: {len(syncs)} syncs"
            assert sorted(s.iteration for s in syncs) == list(range(1, iterations + 1))

            # bypass: the first compute starts on the rotation fill, without
            # any sync preceding it
            first_fwd = min((s for s in trace.spans
                             if s.job_id == job_id and s.phase is Phase.FORWARD),
                            key=lambda s: s.iteration)
            assert first_fwd.start == fill
            fill += fwd + bwd

            # drain: the last sync belongs to iteration T and outlives the
            # last compute
            last_compute_end = max(s.end for s in trace.spans
                                   if s.job_id == job_id and s.phase is not Phase.SYNC)
            drain = max(syncs, key=lambda s: s.iteration)
            assert drain.start >= last_compute_end
            assert drain.end >= last_compute_end


@criterion(5, "convergence neutrality: bitwise-equal trajectories, gradients vs finite differences")
def test_criterion_5_convergence_neutrality():
    began = time.monotonic()
    losses = (LossKind.LEAST_SQUARES, LossKind.LOGISTIC)
    for n_jobs in (1, 2, 3):
        for workers in (1, 2, 4):
            for iterations in (1, 10, 100):
                for seed in range(5):
                    configs = [
                        SgdConfig(loss=losses[j % 2],
                                  dataset_seed=1000 * seed + 10 * n_jobs + j,
                                  rng_seed=seed * 31 + j)
                        for j in range(n_jobs)
                    ]
                    # syncs of 0-8 ns against 5 ns computes, under both policies;
                    # a parameter-server sync costs the same for any worker count
                    plan = SchedulePlan((Policy.CROSSOVER, Policy.SEQUENTIAL)[seed % 2],
                                        tuple(ns_job(f"j{j}", 2, 3, (seed + 3 * j) % 9,
                                                     iterations) for j in range(n_jobs)),
                                        replace(NS_CLUSTER, workers=workers))
                    report = check_neutrality(configs, plan)
                    assert report.first_divergence is None, (
                        f"divergence at jobs={n_jobs} workers={workers} "
                        f"T={iterations} seed={seed}: {report.first_divergence}")

    # 24 rows as 4 workers x 6 rows: loss_value averages over every row of
    # the stack, so the check covers the worker averaging too
    rng = np.random.default_rng(2468)
    x = rng.standard_normal((24, 6)).reshape(4, 6, 6)
    targets = {
        LossKind.LEAST_SQUARES: x @ rng.standard_normal(6),
        LossKind.LOGISTIC: (rng.standard_normal(24) > 0).astype(np.float64).reshape(4, 6),
    }
    for k in range(100):
        loss = losses[k % 2]
        params = rng.standard_normal(6)
        analytic = loss_gradient(loss is LossKind.LOGISTIC, params, x, targets[loss])
        numeric = finite_difference_gradient(
            lambda p: loss_value(loss, p, x, targets[loss]), params, step=1e-5)
        rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
        assert rel < 1e-6
    elapsed = time.monotonic() - began
    assert elapsed < 10.0, f"neutrality suite took {elapsed:.1f}s"


@criterion(6, "fusion benefit: one message beats per-tensor messages by (k-1) latency sets")
def test_criterion_6_fusion_benefit():
    # clusters whose bandwidth term is exactly 1 ns/byte, so the gap is pure latency
    ring2 = ClusterSpec(workers=2, bandwidth_bytes_per_sec=10**9,
                        latency_per_message=5_000,
                        architecture=Architecture.RING_ALLREDUCE)
    ps = ClusterSpec(workers=4, bandwidth_bytes_per_sec=2 * 10**9,
                     latency_per_message=5_000,
                     architecture=Architecture.PARAMETER_SERVER)
    latency_term = {ring2: 2 * (2 - 1) * 5_000, ps: 2 * 5_000}

    # per-tensor inventories: the two bundled profiles and a synthetic one
    inventories = [fixture_tensor_sizes("resnet50"), fixture_tensor_sizes("vgg16"),
                   [3, 1000, 481, 77, 9_999, 0, 256]]

    for cluster, term in latency_term.items():
        for sizes in inventories:
            assert len(sizes) >= 2
            fused = comm_time(sum(sizes), cluster)
            unfused = sum(comm_time(s, cluster) for s in sizes)
            assert fused < unfused
            assert unfused - fused == term * (len(sizes) - 1)

    # strictness also holds on a realistic wide ring
    wide = ClusterSpec(workers=16, bandwidth_bytes_per_sec=12_500_000_000,
                       latency_per_message=5_000,
                       architecture=Architecture.RING_ALLREDUCE)
    for sizes in inventories:
        fused = comm_time(sum(sizes), wide)
        assert fused < sum(comm_time(s, wide) for s in sizes)


@criterion(7, "legality suite: 1000 random plans are legal, dominated, cycle-bounded")
def test_criterion_7_legality_property_suite():
    began = time.monotonic()
    rng = random.Random(20260810)
    for _ in range(1000):
        n_jobs = rng.randint(1, 4)
        specs = []
        for i in range(n_jobs):
            fwd = rng.randint(0, 12)
            bwd = rng.randint(1, 12) if fwd == 0 else rng.randint(0, 12)
            specs.append((f"j{i}", fwd, bwd, rng.randint(0, 15), rng.randint(2, 7)))

        plan_x = ns_plan(Policy.CROSSOVER, specs)
        plan_s = ns_plan(Policy.SEQUENTIAL, specs)
        cross, seq = simulate(plan_x), simulate(plan_s)

        assert cross.makespan <= seq.makespan
        if n_jobs >= 2 and all(s[3] > 0 for s in specs):
            assert cross.makespan < seq.makespan

        brute_spans, brute_makespan = brute_crossover(specs)
        assert spans_from_trace(cross) == brute_spans
        assert cross.makespan == brute_makespan
        brute_spans, brute_makespan = brute_sequential(specs)
        assert spans_from_trace(seq) == brute_spans
        assert seq.makespan == brute_makespan

        for job_id, _, _, _, iterations in specs:
            syncs = sum(1 for s in cross.spans
                        if s.job_id == job_id and s.phase is Phase.SYNC)
            assert syncs == iterations

        if n_jobs >= 2:
            cycle = crossover_cycle(specs)
            bound = max(sum(f + b for _, f, b, _, _ in specs),
                        sum(c for _, _, _, c, _ in specs),
                        max(f + b + c for _, f, b, c, _ in specs))
            assert cycle >= bound, f"cycle {cycle} below bound {bound} for {specs}"
    elapsed = time.monotonic() - began
    assert elapsed < 30.0, f"legality suite took {elapsed:.1f}s"


@criterion(8, "determinism: repeated CLI invocations write byte-identical artifacts")
def test_criterion_8_cli_determinism(tmp_path):
    golden = str(SCENARIO_DIR / "golden_2jobs.json")
    resnet = str(SCENARIO_DIR / "resnet50_2jobs_100g.json")
    sweep_base = str(SCENARIO_DIR / "sweep_base.json")

    def invoke_all(root: Path):
        assert cli_main(["simulate", "--config", golden, "--out", str(root / "g"),
                         "--format", "json", "--format", "csv",
                         "--format", "table", "--format", "chrome-trace"]) == 0
        assert cli_main(["simulate", "--config", resnet, "--out", str(root / "r"),
                         "--iters", "5"]) == 0
        assert cli_main(["sweep", "--config", sweep_base, "--out", str(root / "s"),
                         "--ratio-min", "0.25", "--ratio-max", "1.5",
                         "--steps", "4", "--iters", "40"]) == 0

    first, second = tmp_path / "one", tmp_path / "two"
    invoke_all(first)
    invoke_all(second)

    produced = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert produced, "no artifacts written"
    assert produced == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for rel in produced:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
