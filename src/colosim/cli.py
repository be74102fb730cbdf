"""Command-line entry point.

Subcommands:
  simulate         run one scenario, write metrics report(s) and the span trace
  sweep            scale the sync payload across a comm/comp ratio range and
                   emit a (rho, speedup) CSV comparing both policies
  equivalence      run the SGD schedule-neutrality suite over a fixed grid
                   of job and worker counts
  validate-config  parse and validate a scenario file

Exit codes: 0 success, 1 validation/usage error, 2 runtime error,
3 equivalence failure.  All outputs are deterministic functions of the
config and flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .comm import Architecture, ClusterSpec, cost_terms
from .equivalence import LossKind, SgdConfig, check_neutrality
from .engine import trace_to_chrome_json, trace_to_json
from .errors import ConfigError, InvalidTraceError
from .metrics import measure, report
from .scenario import load_config
from .scheduler import Policy, SchedulePlan, makespan, simulate
from .workload import comp_time, fixture_profile

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_EQUIVALENCE = 3

REPORT_FILES = {"json": "metrics.json", "csv": "metrics.csv", "table": "metrics.txt"}

# Upper bounds that keep a run's time and memory small; not options.
MAX_SWEEP_STEPS = 1000
MAX_EQUIV_ITERS = 10_000

# Characters encoded per write, so a document is never held a second time
# whole as bytes.
WRITE_SLICE_CHARS = 1 << 20


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        for i in range(0, len(text), WRITE_SLICE_CHARS):
            f.write(text[i:i + WRITE_SLICE_CHARS])


def _cmd_simulate(args) -> int:
    scenario = load_config(args.config)
    plan = scenario.plan(args.iters)
    trace = simulate(plan)
    metrics = measure(trace, plan, scenario=scenario.name)

    out = Path(args.out)
    _write(out / "trace.json", trace_to_json(trace))
    for fmt in args.format or ["json"]:
        if fmt == "chrome-trace":
            _write(out / "trace_chrome.json", trace_to_chrome_json(trace))
        else:
            _write(out / REPORT_FILES[fmt], report(metrics, fmt))
    print(f"{scenario.name}: policy={plan.policy.value} "
          f"makespan_ns={trace.makespan} spans={3 * len(trace.rows)} -> {out}")
    return EXIT_OK


def _ratio_points(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps)]


def _payload_for_ratio(plan: SchedulePlan, rho: Fraction) -> int:
    """Gradient bytes that make the fused sync last rho * comp, exactly as possible."""
    latency, num, den = cost_terms(plan.cluster)
    if num == 0:
        raise ConfigError("sweep: ring_allreduce needs workers >= 2 to have "
                          "any communication to scale")
    target = rho * comp_time(plan.jobs[0])
    if target < latency:
        raise ConfigError(
            f"sweep: ratio {float(rho):g} unreachable, per-message latency alone "
            f"is {latency} ns but the target sync time is {float(target):g} ns")
    return round((target - latency) * den / num)


def _cmd_sweep(args) -> int:
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must be in [2, {MAX_SWEEP_STEPS}], got {args.steps}")
    for flag, value in (("--ratio-min", args.ratio_min), ("--ratio-max", args.ratio_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value}")
    lo, hi = Fraction(str(args.ratio_min)), Fraction(str(args.ratio_max))
    if not 0 < lo <= hi <= 4:
        raise ConfigError("--ratio-min/--ratio-max must satisfy 0 < min <= max <= 4")

    scenario = load_config(args.config)
    plan = scenario.plan(args.iters)
    if len({comp_time(j) for j in plan.jobs}) != 1:
        raise ConfigError("sweep requires homogeneous jobs (equal compute time)")

    rows = []
    for rho in _ratio_points(lo, hi, args.steps):
        payload = _payload_for_ratio(plan, rho)
        jobs = tuple(replace(job, grad_bytes=payload) for job in plan.jobs)
        speedup = Fraction(makespan(SchedulePlan(Policy.SEQUENTIAL, jobs, plan.cluster)),
                           makespan(SchedulePlan(Policy.CROSSOVER, jobs, plan.cluster)))
        rows.append(f"{float(rho)!r},{float(speedup)!r}")

    out = Path(args.out) / "sweep.csv"
    _write(out, "rho,speedup\n" + "\n".join(rows) + "\n")
    print(f"{scenario.name}: {args.steps} ratio points "
          f"[{float(lo):g}, {float(hi):g}] -> {out}")
    return EXIT_OK


_EQUIV_JOB_COUNTS = (1, 2, 3)
_EQUIV_WORKER_COUNTS = (1, 2, 4)


def _equiv_configs(n_jobs: int, workers: int, seed: int) -> list[SgdConfig]:
    losses = (LossKind.LEAST_SQUARES, LossKind.LOGISTIC)
    return [
        SgdConfig(
            loss=losses[j % 2],
            dataset_seed=seed * 1000 + n_jobs * 100 + workers * 10 + j,
            rng_seed=seed + 31 * j,
        )
        for j in range(n_jobs)
    ]


def _equiv_plan(n_jobs: int, workers: int, iterations: int) -> SchedulePlan:
    """The crossover plan a grid cell replays: resnet50 and vgg16 alternate.

    On a 10 Gbps parameter server their sync/compute ratios are about 0.71
    and 1.53, so multi-job cells both hide and expose syncs, and one-worker
    cells still sync.
    """
    jobs = tuple(fixture_profile(("resnet50", "vgg16")[j % 2], job_id=f"job{j}",
                                 iterations=iterations) for j in range(n_jobs))
    cluster = ClusterSpec(workers, 10**10 // 8, architecture=Architecture.PARAMETER_SERVER)
    return SchedulePlan(Policy.CROSSOVER, jobs, cluster)


def _cmd_equivalence(args) -> int:
    if not 1 <= args.iters <= MAX_EQUIV_ITERS:
        raise ConfigError(f"--iters must be in [1, {MAX_EQUIV_ITERS}], got {args.iters}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")

    worst = 0.0
    failure = None
    for n_jobs in _EQUIV_JOB_COUNTS:
        for workers in _EQUIV_WORKER_COUNTS:
            configs = _equiv_configs(n_jobs, workers, args.seed)
            plan = _equiv_plan(n_jobs, workers, args.iters)
            rep = check_neutrality(configs, plan)
            print(f"jobs={n_jobs} workers={workers} iters={args.iters}: "
                  f"max deviation {rep.max_abs_deviation:g}")
            worst = max(worst, rep.max_abs_deviation)
            if rep.first_divergence is not None and failure is None:
                failure = (n_jobs, workers, rep.first_divergence)

    print(f"max absolute trajectory deviation: {worst:g}")
    if failure is not None:
        n_jobs, workers, (job, iteration, coord) = failure
        print(f"FAIL: trajectories diverge at jobs={n_jobs} workers={workers} "
              f"job_index={job} iteration={iteration} coordinate={coord}",
              file=sys.stderr)
        return EXIT_EQUIVALENCE
    print("PASS: interleaved trajectories identical to isolated runs")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = load_config(args.config)
    scenario.plan()
    print(f"OK: {scenario.name}: {len(scenario.jobs)} job(s), "
          f"policy={scenario.policy.value}, "
          f"architecture={scenario.cluster.architecture.value}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, like every other usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colosim",
        description="Deterministic simulator for co-located training jobs that "
                    "overlap gradient synchronization with compute.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write reports")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--format", action="append",
                     choices=[*REPORT_FILES, "chrome-trace"],
                     help="metrics/trace formats (repeatable; default json)")
    sim.add_argument("--iters", type=int, default=None,
                     help="override every job's iteration count")
    sim.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="speedup curve over comm/comp ratios")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default="out")
    sweep.add_argument("--ratio-min", type=float, default=0.1)
    sweep.add_argument("--ratio-max", type=float, default=2.0)
    sweep.add_argument("--steps", type=int, default=20,
                       help=f"ratio points, in [2, {MAX_SWEEP_STEPS}] (default 20)")
    sweep.add_argument("--iters", type=int, default=None,
                       help="override every job's iteration count")
    sweep.set_defaults(func=_cmd_sweep)

    eq = sub.add_parser("equivalence", help="SGD schedule-neutrality suite")
    eq.add_argument("--seed", type=int, default=0, help="dataset/init seed (>= 0)")
    eq.add_argument("--iters", type=int, default=100,
                    help=f"iterations per job, in [1, {MAX_EQUIV_ITERS}] (default 100)")
    eq.set_defaults(func=_cmd_equivalence)

    val = sub.add_parser("validate-config", help="check a scenario file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InvalidTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
