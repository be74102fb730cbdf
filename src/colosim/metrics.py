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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .engine import Trace, _escaped, _gap_runs
from .errors import ComparisonError, ConfigError, InvalidTraceError, _check_type
from .scheduler import SchedulePlan, validate_trace
from .workload import comp_time

__all__ = ["Metrics", "measure", "compare", "report"]

# Versioned column set of the CSV report; changing it means bumping the name.
METRICS_CSV_HEADER = ("scenario,policy,job_id,iterations,period_ns,"
                      "makespan_ns,gpu_util,nic_util,speedup")


@dataclass(frozen=True)
class Metrics:
    """Measurements of one simulated run (plus speedup in comparison reports).

    Each field must have its declared type exactly, job ids included, or a
    ``ConfigError`` names it, so every report renders as its format defines.
    The per-job dicts are the caller's, so ``report`` checks their entries
    again.
    """

    scenario: str
    policy: str
    makespan: int
    per_job_iteration_period: dict[str, int | None]
    per_job_iterations: dict[str, int]
    gpu_utilization: Fraction
    nic_utilization: Fraction
    aggregate_throughput: Fraction  # completed iterations per second
    speedup_vs_baseline: Fraction | None = None

    def __post_init__(self):
        for name, kind in (("scenario", str), ("policy", str), ("makespan", int),
                           ("per_job_iteration_period", dict), ("per_job_iterations", dict),
                           ("gpu_utilization", Fraction), ("nic_utilization", Fraction),
                           ("aggregate_throughput", Fraction)):
            _check_type(f"metrics.{name}", kind, getattr(self, name))
        if self.speedup_vs_baseline is not None:
            _check_type("metrics.speedup_vs_baseline", Fraction, self.speedup_vs_baseline)
        _check_jobs(self)


def _check_jobs(m: Metrics) -> None:
    """Raise ``ConfigError`` naming the first per-job entry of ``m`` of a wrong type."""
    _check_entries("metrics.per_job_iterations", m.per_job_iterations, {int})
    _check_entries("metrics.per_job_iteration_period", m.per_job_iteration_period,
                   {int, type(None)})


def _check_entries(name: str, entries: dict, kinds: set[type]) -> None:
    """Raise ``ConfigError`` naming the first entry whose key is not a ``str`` or whose
    value's type is not in ``kinds``: ``int``, and ``NoneType`` where a value may be None.

    The key and value types are gathered first, so valid entries build no message.
    """
    if set(map(type, entries)) <= {str} and set(map(type, entries.values())) <= kinds:
        return
    for job_id, value in entries.items():
        _check_type(f"{name} key", str, job_id)
        if type(value) not in kinds:
            _check_type(f"{name}[{job_id!r}]", int, value)


def _steady_period(gaps: list[int], counts: list[int]) -> int | None:
    """Lower median gap between consecutive compute starts over the middle 50%.

    ``gaps`` and ``counts`` list a job's gaps in order as runs of equal
    gaps: run k is ``counts[k]`` gaps of ``gaps[k]``, each count at least 1
    (see ``engine._gap_runs``).  Dropping the first and last quarter of the
    ``k`` gaps (positions ``[k//4, k - k//4)``) excludes pipeline fill and
    drain transients.  The lower median of an even count is the smaller
    middle gap, so the result is always one of the gaps, an exact integer;
    a window inside one run is that run's gap.  Undefined (None) with no
    gaps, that is with fewer than two starts.
    """
    if not gaps:
        return None
    ends = list(accumulate(counts))
    k = ends[-1]
    lo, hi = k // 4, k - k // 4
    # the runs holding positions lo and hi - 1
    first, last = bisect_right(ends, lo), bisect_left(ends, hi)
    if first == last:
        return gaps[first]
    # cut to the window and sorted by gap
    cut = counts[first:last + 1]
    cut[0] = ends[first] - lo
    cut[-1] -= ends[last] - hi
    window = sorted(zip(gaps[first:last + 1], cut))
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
        per_job_iteration_period={job_id: _steady_period(gaps, counts)
                                  for job_id, (gaps, counts) in _gap_runs(trace, plan).items()},
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


# metrics.json, the versioned document ``json.dumps(doc, indent=2)`` lays out:
# the top-level fields, and ``per_job`` as "{}" or one entry per job.
_JSON = """{{
  "format": "colosim.metrics/v1",
  "scenario": "{}",
  "policy": "{}",
  "makespan_ns": {},
  "per_job": {},
  "gpu_utilization": {},
  "nic_utilization": {},
  "aggregate_throughput_per_s": {},
  "speedup_vs_baseline": {}
}}
"""
_JSON_JOB = """    "{}": {{
      "iterations": {},
      "period_ns": {}
    }}"""


def _json(m: Metrics) -> str:
    """``m`` in the metrics.json template, each string escaped as ``engine._escaped`` does."""
    periods = m.per_job_iteration_period
    jobs = ",\n".join([_JSON_JOB.format(_escaped(job_id), iterations,
                                        _null(periods.get(job_id)))
                       for job_id, iterations in m.per_job_iterations.items()])
    ratios = ["null" if x is None else f'"{x}"'
              for x in (m.gpu_utilization, m.nic_utilization, m.aggregate_throughput,
                        m.speedup_vs_baseline)]
    return _JSON.format(_escaped(m.scenario), _escaped(m.policy), m.makespan,
                        f"{{\n{jobs}\n  }}" if jobs else "{}", *ratios)


def _null(value: object) -> object:
    """JSON's ``null`` for ``None``, else ``value``."""
    return "null" if value is None else value


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
    """Render metrics as 'json', 'csv' or 'table' text; any other ``fmt`` is a ``ConfigError``.

    So is ``metrics`` of any type but ``Metrics``, or one whose per-job
    dicts were given an entry of a wrong type after it was built.  'json'
    fills the metrics.json template, whose bytes are those of
    ``json.dumps(doc, indent=2)`` on the document of nested dicts.
    """
    _check_type("metrics", Metrics, metrics)
    _check_jobs(metrics)
    if fmt == "json":
        return _json(metrics)
    if fmt == "csv":
        return _csv(metrics)
    if fmt == "table":
        return _table(metrics)
    raise ConfigError(f"unknown report format {fmt!r} (expected json, csv or table)")
