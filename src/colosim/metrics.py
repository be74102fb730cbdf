"""Trace measurement: makespan, utilization, periods, throughput, speedup.

Ratios (utilization, throughput, speedup) are kept as exact fractions so that
reports are deterministic and comparisons like "speedup of identical traces
is exactly 1" hold without tolerance; CSV and table renderings convert to
floats at the edge.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .engine import Trace, validate_trace
from .errors import ComparisonError, InvalidTraceError
from .scheduler import SchedulePlan

__all__ = ["Metrics", "measure", "compare", "report", "METRICS_CSV_HEADER"]

# Versioned column set of the CSV report; changing it means bumping the name.
METRICS_CSV_HEADER = ("scenario,policy,job_id,iterations,period_ns,"
                      "makespan_ns,gpu_util,nic_util,speedup")

_JSON_FORMAT = "colosim.metrics/v1"


@dataclass(frozen=True)
class Metrics:
    """Measurements of one simulated run (plus speedup in comparison reports)."""

    scenario: str
    policy: str
    makespan: int
    per_job_iteration_period: dict[str, int | None]
    per_job_iterations: dict[str, int]
    gpu_utilization: Fraction
    nic_utilization: Fraction
    aggregate_throughput: Fraction  # completed iterations per second
    speedup_vs_baseline: Fraction | None = None


def _steady_period(starts: list[int]) -> int | None:
    """Median gap between consecutive compute starts over the middle 50%.

    Dropping the first and last quarter of the gaps excludes pipeline fill
    and drain transients; median_low keeps the result an exact integer.
    Undefined (None) with fewer than two starts.
    """
    if len(starts) < 2:
        return None
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    k = len(gaps)
    window = gaps[k // 4: k - k // 4]
    return int(statistics.median_low(window))


def measure(trace: Trace, plan: SchedulePlan, scenario: str = "") -> Metrics:
    """Compute metrics for a legal trace of the plan.

    Rejects traces with violations, and traces whose job set or per-job sync
    counts differ from the plan's jobs and iteration budgets.
    """
    violations = validate_trace(trace)
    if violations:
        raise InvalidTraceError(violations)

    compute_busy = 0
    network_busy = 0
    starts: dict[str, list[int]] = {j.job_id: [] for j in plan.jobs}
    unknown: dict[str, None] = {}  # job ids in order of first appearance
    for job_id, _, start, _, compute_end, sync_start, sync_end in trace.rows:
        job_starts = starts.get(job_id)
        if job_starts is None:
            unknown[job_id] = None
            continue
        compute_busy += compute_end - start
        network_busy += sync_end - sync_start
        job_starts.append(start)
    # one sync per row; validate_trace checked that each job's rows run 1, 2, ...
    completed = {job_id: len(job_starts) for job_id, job_starts in starts.items()}
    mismatches = [f"job {job_id}: in the trace but not in the plan"
                  for job_id in unknown]
    mismatches += [f"job {j.job_id}: {completed[j.job_id]} sync span(s) for a "
                   f"budget of {j.iterations} iteration(s)"
                   for j in plan.jobs if completed[j.job_id] != j.iterations]
    if mismatches:
        raise InvalidTraceError(mismatches)

    makespan = trace.makespan
    gpu_util = Fraction(compute_busy, makespan) if makespan else Fraction(0)
    nic_util = Fraction(network_busy, makespan) if makespan else Fraction(0)
    total_iters = sum(completed.values())
    throughput = (Fraction(total_iters * 10**9, makespan) if makespan
                  else Fraction(0))

    periods = {job_id: _steady_period(job_starts) for job_id, job_starts in starts.items()}
    return Metrics(
        scenario=scenario,
        policy=plan.policy.value,
        makespan=makespan,
        per_job_iteration_period=periods,
        per_job_iterations=completed,
        gpu_utilization=gpu_util,
        nic_utilization=nic_util,
        aggregate_throughput=throughput,
    )


def compare(crossover: Metrics, baseline: Metrics) -> Metrics:
    """Attach baseline-vs-crossover speedup (baseline makespan / crossover makespan)."""
    if crossover.per_job_iterations != baseline.per_job_iterations:
        raise ComparisonError(
            f"job sets differ: {sorted(crossover.per_job_iterations)} "
            f"vs {sorted(baseline.per_job_iterations)}")
    if crossover.makespan == 0:
        raise ComparisonError("cannot compare empty traces")
    return dataclasses.replace(
        crossover, speedup_vs_baseline=Fraction(baseline.makespan, crossover.makespan))


def _frac_str(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def _json_doc(m: Metrics) -> dict:
    return {
        "format": _JSON_FORMAT,
        "scenario": m.scenario,
        "policy": m.policy,
        "makespan_ns": m.makespan,
        "per_job": {
            job_id: {
                "iterations": m.per_job_iterations.get(job_id, 0),
                "period_ns": m.per_job_iteration_period.get(job_id),
            }
            for job_id in m.per_job_iterations
        },
        "gpu_utilization": _frac_str(m.gpu_utilization),
        "nic_utilization": _frac_str(m.nic_utilization),
        "aggregate_throughput_per_s": _frac_str(m.aggregate_throughput),
        "speedup_vs_baseline": _frac_str(m.speedup_vs_baseline),
    }


def _csv(m: Metrics) -> str:
    out = io.StringIO()
    out.write(METRICS_CSV_HEADER + "\n")
    rows = csv.writer(out, lineterminator="\n")
    speedup = "" if m.speedup_vs_baseline is None else repr(float(m.speedup_vs_baseline))
    shared = (m.makespan, repr(float(m.gpu_utilization)),
              repr(float(m.nic_utilization)), speedup)
    for job_id, iters in m.per_job_iterations.items():
        period = m.per_job_iteration_period.get(job_id)
        rows.writerow((m.scenario, m.policy, job_id, iters,
                       "" if period is None else period, *shared))
    rows.writerow((m.scenario, m.policy, "aggregate",
                   sum(m.per_job_iterations.values()), "", *shared))
    return out.getvalue()


def _table(m: Metrics) -> str:
    lines = [
        f"scenario: {m.scenario}  policy: {m.policy}",
        (f"makespan_ns: {m.makespan}  gpu_util: {float(m.gpu_utilization):.4f}  "
         f"nic_util: {float(m.nic_utilization):.4f}  "
         f"throughput_per_s: {float(m.aggregate_throughput):.6g}"
         + ("" if m.speedup_vs_baseline is None
            else f"  speedup: {float(m.speedup_vs_baseline):.4f}")),
        f"{'job_id':<24} {'iterations':>10} {'period_ns':>16}",
    ]
    for job_id, iters in m.per_job_iterations.items():
        period = m.per_job_iteration_period.get(job_id)
        lines.append(f"{job_id:<24} {iters:>10} "
                     f"{'-' if period is None else period:>16}")
    return "\n".join(lines) + "\n"


def report(metrics: Metrics, fmt: str) -> str:
    """Render metrics as 'json', 'csv' or 'table' text."""
    if fmt == "json":
        return json.dumps(_json_doc(metrics), indent=2) + "\n"
    if fmt == "csv":
        return _csv(metrics)
    if fmt == "table":
        return _table(metrics)
    raise ValueError(f"unknown report format {fmt!r} (expected json, csv or table)")
