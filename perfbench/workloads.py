"""The four workloads: timed user actions and their output checks.

An operation is one user action: an in-process ``colosim.cli.main(argv)``
call with stdout captured, or the README "Library" call sequence.  Every
operation is checked against ``reference`` after its timer stops; a
mismatch fails the operation.  A check also returns the simulated
job-iterations the operation covered and the simulated statistics of each
trace it produced, keyed by scenario and policy.
"""

from __future__ import annotations

import io
import json
import math
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import colosim
import colosim.cli

import gen
import reference

REPORT_FORMATS = ("json", "csv", "table", "chrome-trace")

# Documented makespans of the hand-enumerated golden scenario.
GOLDEN_MAKESPAN = {"crossover": 13, "sequential": 18}


@dataclass
class Checked:
    ok: bool
    iters: int = 0
    stats: dict[str, dict[str, int]] = field(default_factory=dict)
    why: str = ""


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = colosim.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _span_tuples(spans):
    return ((s.lane_id, s.job_id, s.phase.value, s.iteration, s.start, s.end)
            for s in spans)


class Workload:
    """Inputs of one workload; subclasses build each cycle's operations."""

    def __init__(self, inputs, seed: int, tmp: Path, profiles: dict):
        self.inputs = inputs
        self.seed = seed
        self.out = tmp / "out"
        self.profiles = profiles

    def setup(self) -> None:
        """Load and validate every scenario file into a plan."""
        for path, _, _ in self.inputs:
            colosim.load_config(path).plan()

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Operations run, and checked, once before timing starts."""
        return self.cycle(0)[:1]


class Export(Workload):
    """`colosim simulate` with every output format, on bundled and seeded plans."""

    def cycle(self, index: int) -> list[Op]:
        return [self._op(path, doc) for path, doc, params in self.inputs
                if not params.get("bundled")]

    def warmup(self) -> list[Op]:
        """The bundled scenarios: checked every run, but at 3-200 ms too
        small to time beside the seeded plans without skewing the median."""
        return [self._op(path, doc) for path, doc, params in self.inputs
                if params.get("bundled")]

    def _op(self, path: Path, doc: dict) -> Op:
        argv = ["simulate", "--config", str(path), "--out", str(self.out)]
        for fmt in REPORT_FORMATS:
            argv += ["--format", fmt]
        return Op(f"{doc['name']}/{doc['policy']}", lambda: _cli(argv),
                  lambda outcome: self._check(doc, outcome))

    def _check(self, doc: dict, outcome) -> Checked:
        try:
            return self._compare(doc, outcome)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _compare(self, doc: dict, outcome) -> Checked:
        status, stdout, stderr = outcome
        if status != 0:
            return Checked(False, why=f"exit {status}: {stderr.strip()}")
        policy = doc["policy"]
        jobs = reference.jobs_of(doc, self.profiles)
        expected = reference.schedule(jobs, policy)
        got = [(r["lane_id"], r["job_id"], r["phase"], r["iteration"],
                r["start_ns"], r["end_ns"])
               for r in json.loads((self.out / "trace.json").read_text())]
        if got != expected:
            return Checked(False, why="trace.json differs from the reference schedule")
        makespan = max(s[5] for s in got)
        if doc["name"] == "golden_2jobs" and makespan != GOLDEN_MAKESPAN[policy]:
            return Checked(False, why=f"golden makespan {makespan}")
        if f"makespan_ns={makespan} spans={len(got)}" not in stdout:
            return Checked(False, why=f"unexpected summary line {stdout!r}")

        ref = reference.metrics_doc(expected, doc, policy)
        if json.loads((self.out / "metrics.json").read_text()) != ref:
            return Checked(False, why="metrics.json differs from the reference")
        why = (_csv_mismatch((self.out / "metrics.csv").read_text(), ref)
               or _table_mismatch((self.out / "metrics.txt").read_text(), ref)
               or _chrome_mismatch((self.out / "trace_chrome.json").read_text(), got))
        if why:
            return Checked(False, why=why)
        key = f"{doc['name']}/{policy}"
        return Checked(True, sum(j[4] for j in jobs), {key: reference.sim_stats(got)})


def _csv_mismatch(text: str, ref: dict) -> str:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    per_job = ref["per_job"]
    if [r[2] for r in rows] != [*per_job, "aggregate"]:
        return "metrics.csv rows do not match the jobs"
    total = sum(v["iterations"] for v in per_job.values())
    for row in rows:
        job = per_job.get(row[2], {"iterations": total, "period_ns": None})
        period = job["period_ns"]
        if (int(row[3]) != job["iterations"]
                or row[4] != ("" if period is None else str(period))
                or int(row[5]) != ref["makespan_ns"]
                or float(row[6]) != float(Fraction(ref["gpu_utilization"]))
                or float(row[7]) != float(Fraction(ref["nic_utilization"]))):
            return f"metrics.csv row {row} differs from the reference"
    return ""


def _table_mismatch(text: str, ref: dict) -> str:
    lines = text.splitlines()
    if (lines[0].split() != ["scenario:", ref["scenario"], "policy:", ref["policy"]]
            or f"makespan_ns: {ref['makespan_ns']} " not in lines[1]
            or len(lines) != 3 + len(ref["per_job"])):
        return "metrics.txt differs from the reference"
    for line, (job_id, job) in zip(lines[3:], ref["per_job"].items()):
        if line.split()[:2] != [job_id, str(job["iterations"])]:
            return f"metrics.txt line {line!r} differs from the reference"
    return ""


def _chrome_mismatch(text: str, spans: list[tuple]) -> str:
    events = json.loads(text)["traceEvents"]
    lanes = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    complete = [e for e in events if e["ph"] == "X"]
    if len(complete) != len(spans):
        return "trace_chrome.json has the wrong number of events"
    for e, (lane, job, phase, it, start, end) in zip(complete, spans):
        if (lanes.get(e["tid"]) != lane or e["name"] != f"{job} {phase} t{it}"
                or e["ts"] != start / 1000.0 or e["dur"] != (end - start) / 1000.0):
            return f"trace_chrome.json event {e} differs from the reference"
    return ""


class Sweep(Workload):
    """`colosim sweep` on seeded homogeneous plans whose ratio range crosses 1."""

    def cycle(self, index: int) -> list[Op]:
        return [self._op(path, doc, params) for path, doc, params in self.inputs]

    def _op(self, path: Path, doc: dict, params: dict) -> Op:
        argv = ["sweep", "--config", str(path), "--out", str(self.out),
                "--ratio-min", str(params["ratio_min"]),
                "--ratio-max", str(params["ratio_max"]),
                "--steps", str(params["steps"])]
        return Op(doc["name"], lambda: _cli(argv),
                  lambda outcome: self._check(doc, params, outcome))

    def _check(self, doc: dict, params: dict, outcome) -> Checked:
        try:
            status, _, stderr = outcome
            if status != 0:
                return Checked(False, why=f"exit {status}: {stderr.strip()}")
            lines = (self.out / "sweep.csv").read_text().splitlines()
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        steps = params["steps"]
        lo = Fraction(str(params["ratio_min"]))
        step = (Fraction(str(params["ratio_max"])) - lo) / (steps - 1)
        if lines[0] != "rho,speedup" or len(lines) != steps + 1:
            return Checked(False, why="sweep.csv has the wrong shape")
        for k, line in enumerate(lines[1:]):
            rho, speedup = map(float, line.split(","))
            expected = reference.sweep_speedup(rho)
            if (not math.isclose(rho, float(lo + k * step), rel_tol=1e-9)
                    or abs(speedup - expected) > 0.01 * expected):
                return Checked(False,
                               why=f"sweep.csv row {line!r} is off the closed form")
        job_iters = sum(job["iterations"] for job in doc["jobs"])
        return Checked(True, steps * 2 * job_iters)


class Crowd(Workload):
    """README "Library" sequence on 64-job plans with Pareto budgets."""

    def __init__(self, inputs, seed: int, tmp: Path, profiles: dict):
        super().__init__(inputs, seed, tmp, profiles)
        self.plans: list = []
        # Expected results are computed up front, one scenario at a time, so
        # no reference schedule is alive next to the program's traces.
        self.expected = {doc["name"]: self._reference(doc) for _, doc, _ in inputs}

    def setup(self) -> None:
        """Load and validate the scenario files into one plan per policy."""
        self.plans = []
        for path, _, _ in self.inputs:
            plan = colosim.load_config(path).plan()
            self.plans.append(tuple(
                colosim.SchedulePlan(policy, plan.jobs, plan.cluster)
                for policy in (colosim.Policy.CROSSOVER, colosim.Policy.SEQUENTIAL)))

    def cycle(self, index: int) -> list[Op]:
        return [self._op(doc, plans)
                for (_, doc, _), plans in zip(self.inputs, self.plans)]

    def _op(self, doc: dict, plans) -> Op:
        name = doc["name"]

        def run():
            crossover, sequential = plans
            trace_x = colosim.simulate(crossover)
            trace_s = colosim.simulate(sequential)
            m = colosim.compare(colosim.measure(trace_x, crossover, scenario=name),
                                colosim.measure(trace_s, sequential, scenario=name))
            return trace_x, trace_s, m, colosim.report(m, "json")

        return Op(name, run, lambda outcome: self._check(doc, outcome))

    def _reference(self, doc: dict) -> tuple[dict, dict]:
        """(expected JSON report, expected statistics per policy)."""
        name = doc["name"]
        jobs = reference.jobs_of(doc, self.profiles)
        spans_x = reference.schedule(jobs, "crossover")
        stats_x = reference.sim_stats(spans_x)
        stats_s = reference.sim_stats(reference.schedule(jobs, "sequential"))
        speedup = Fraction(stats_s["makespan_ns"], stats_x["makespan_ns"])
        return (reference.metrics_doc(spans_x, doc, "crossover", speedup),
                {f"{name}/crossover": stats_x, f"{name}/sequential": stats_s})

    def _check(self, doc: dict, outcome) -> Checked:
        trace_x, trace_s, m, text = outcome
        ref, ref_stats = self.expected[doc["name"]]
        per_job = ref["per_job"]
        exact = (
            m.makespan == ref["makespan_ns"]
            and m.gpu_utilization == Fraction(ref["gpu_utilization"])
            and m.nic_utilization == Fraction(ref["nic_utilization"])
            and m.aggregate_throughput == Fraction(ref["aggregate_throughput_per_s"])
            and m.speedup_vs_baseline == Fraction(ref["speedup_vs_baseline"])
            and m.per_job_iterations == {j: v["iterations"] for j, v in per_job.items()}
            and m.per_job_iteration_period == {j: v["period_ns"]
                                               for j, v in per_job.items()})
        if not exact:
            return Checked(False, why="metrics differ from the reference")
        if json.loads(text) != ref:
            return Checked(False, why="JSON report differs from the reference")
        name = doc["name"]
        stats = {f"{name}/crossover": reference.sim_stats(_span_tuples(trace_x.spans)),
                 f"{name}/sequential": reference.sim_stats(_span_tuples(trace_s.spans))}
        if stats != ref_stats:
            return Checked(False, why="trace statistics differ from the reference")
        return Checked(True, 2 * sum(job["iterations"] for job in doc["jobs"]), stats)


_EQUIV_LINE = re.compile(r"jobs=(\d+) workers=\d+ iters=(\d+): max deviation (\S+)")


class Sgd(Workload):
    """`colosim equivalence` over the CLI's job/worker grid, one seed per op."""

    def cycle(self, index: int) -> list[Op]:
        return [self._op((self.seed * 7919 + index * gen.SGD_SEEDS + k) % 2**31)
                for k in range(gen.SGD_SEEDS)]

    def _op(self, op_seed: int) -> Op:
        argv = ["equivalence", "--iters", str(gen.SGD_ITERS), "--seed", str(op_seed)]
        return Op(f"sgd/{op_seed}", lambda: _cli(argv), self._check)

    def _check(self, outcome) -> Checked:
        status, stdout, stderr = outcome
        if status != 0:
            return Checked(False, why=f"exit {status}: {stderr.strip()}")
        cells = _EQUIV_LINE.findall(stdout)
        if (not cells or any(float(dev) != 0.0 for _, _, dev in cells)
                or "max absolute trajectory deviation: 0\n" not in stdout):
            return Checked(False, why="SGD trajectories deviate")
        # Each cell runs every job once isolated and once interleaved.
        return Checked(True, sum(2 * int(jobs) * int(iters) for jobs, iters, _ in cells))


WORKLOADS = {"export": Export, "sweep": Sweep, "crowd": Crowd, "sgd": Sgd}
