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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .engine import Trace, _gap_runs
from .errors import ComparisonError, ConfigError, InvalidTraceError
from .scheduler import SchedulePlan, validate_trace
from .workload import comp_time

__all__ = ["Metrics", "measure", "compare", "report"]

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


def _steady_period(runs: list[tuple[int, int]]) -> int | None:
    """Lower median gap between consecutive compute starts over the middle 50%.

    ``runs`` lists a job's gaps in order as ``(gap, count)`` runs of equal
    gaps, each count at least 1.  Dropping the first and last quarter of the
    ``k`` gaps (positions ``[k//4, k - k//4)``) excludes pipeline fill and
    drain transients.  The lower median of an even count is the smaller
    middle gap, so the result is always one of the gaps, an exact integer.
    Undefined (None) with no gaps, that is with fewer than two starts.
    """
    if not runs:
        return None
    ends = list(accumulate([count for _, count in runs]))
    k = ends[-1]
    lo, hi = k // 4, k - k // 4
    # the runs holding positions lo and hi - 1, cut to the window
    first, last = bisect_right(ends, lo), bisect_left(ends, hi)
    window = runs[first:last + 1]
    window[0] = (window[0][0], ends[first] - lo)
    window[-1] = (window[-1][0], window[-1][1] - (ends[last] - hi))
    window.sort()
    # the gap at rank (hi - lo - 1) // 2 of the sorted window
    ends = list(accumulate([count for _, count in window]))
    return window[bisect_right(ends, (hi - lo - 1) // 2)][0]


def measure(trace: Trace, plan: SchedulePlan, scenario: str = "") -> Metrics:
    """Compute metrics for a trace that is the plan's schedule.

    Raises InvalidTraceError unless ``validate_trace(trace, plan)`` is empty,
    and ``ConfigError``, as it does, for a trace or plan of another type.
    A valid trace holds exactly the schedule's rows, so busy times come from
    the plan (job i's T_i computes and T_i syncs) and the makespan and
    periods from the trace (``engine._gap_runs``); measuring a simulated
    trace builds no rows.
    """
    violations = validate_trace(trace, plan)
    if violations:
        raise InvalidTraceError(violations)

    compute_busy = sum(j.iterations * comp_time(j) for j in plan.jobs)
    network_busy = sum(j.iterations * comm for j, comm in zip(plan.jobs, plan.comm_times))
    iterations = {j.job_id: j.iterations for j in plan.jobs}
    makespan = trace.makespan
    return Metrics(
        scenario=scenario,
        policy=plan.policy.value,
        makespan=makespan,
        per_job_iteration_period={job_id: _steady_period(job_runs)
                                  for job_id, job_runs in _gap_runs(trace, plan).items()},
        per_job_iterations=iterations,
        gpu_utilization=Fraction(compute_busy, makespan),
        nic_utilization=Fraction(network_busy, makespan),
        aggregate_throughput=Fraction(sum(iterations.values()) * 10**9, makespan),
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
                "iterations": iterations,
                "period_ns": m.per_job_iteration_period.get(job_id),
            }
            for job_id, iterations in m.per_job_iterations.items()
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
    """Render metrics as 'json', 'csv' or 'table' text; any other ``fmt`` is a ``ConfigError``."""
    if fmt == "json":
        return json.dumps(_json_doc(metrics), indent=2) + "\n"
    if fmt == "csv":
        return _csv(metrics)
    if fmt == "table":
        return _table(metrics)
    raise ConfigError(f"unknown report format {fmt!r} (expected json, csv or table)")
