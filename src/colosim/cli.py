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
from contextlib import ExitStack
from fractions import Fraction
from functools import lru_cache
from itertools import cycle
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .comm import Architecture, ClusterSpec, _sync_times, cost_terms
from .engine import _CHROME, _JSON, _SPANS, _row_count, _trace_text
from .errors import ConfigError, InvalidTraceError
from .metrics import measure, report
from .scenario import load_config
from .scheduler import Policy, SchedulePlan, _run, _sequential_makespan, simulate
from .workload import comp_time, fixture_profile

# The SGD oracle needs numpy, so only the equivalence subcommand imports it.
if TYPE_CHECKING:
    from .equivalence import SgdConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_EQUIVALENCE = 3

REPORT_FILES = {"json": "metrics.json", "csv": "metrics.csv", "table": "metrics.txt"}

# Upper bounds that keep a run's time and memory small; not options.
MAX_SWEEP_STEPS = 1000
MAX_EQUIV_ITERS = 10_000

def _write(paths: Sequence[Path], texts: Iterable[str]) -> None:
    """Write ``texts`` to ``paths`` in rotation: text ``k`` goes to ``paths[k % len(paths)]``."""
    with ExitStack() as stack:
        files = []
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            files.append(stack.enter_context(path.open("w", encoding="utf-8")))
        for file, text in zip(cycle(files), texts):
            file.write(text)


def _cmd_simulate(args) -> int:
    scenario = load_config(args.config)
    plan = scenario.plan(args.iters)
    trace = simulate(plan)
    metrics = measure(trace, plan, scenario=scenario.name)

    out = Path(args.out)
    formats = dict.fromkeys(args.format or ["json"])
    traces = {"trace.json": _JSON}
    if "chrome-trace" in formats:
        traces["trace_chrome.json"] = _CHROME
    _write([out / name for name in traces], _trace_text(trace, tuple(traces.values())))
    for fmt in formats:
        if fmt in REPORT_FILES:
            _write([out / REPORT_FILES[fmt]], [report(metrics, fmt)])
    print(f"{scenario.name}: policy={plan.policy.value} "
          f"makespan_ns={trace.makespan} spans={len(_SPANS) * _row_count(trace)} -> {out}")
    return EXIT_OK


def _payload(terms: tuple[int, int, int], comp: int, p: int, q: int) -> int:
    """Gradient bytes whose sync lasts ``p / q`` times ``comp``, a compute time in ns.

    ``terms`` are the cluster's ``cost_terms``, ``p`` and ``q`` are positive
    integers, and the exact payload is rounded to the nearest byte, half to
    even as ``round`` rounds a ``Fraction``.  A ``ConfigError`` if no payload
    reaches that time; its ``p / q`` rounds as ``float()`` of the ratio does.
    """
    latency, num, den = terms
    if num == 0:
        raise ConfigError("sweep: ring_allreduce needs workers >= 2 to have "
                          "any communication to scale")
    target = p * comp  # q times the target sync time
    if target < latency * q:
        raise ConfigError(
            f"sweep: ratio {p / q:g} unreachable, per-message latency alone "
            f"is {latency} ns but the target sync time is {target / q:g} ns")
    scale = q * num
    whole, rest = divmod((target - latency * q) * den, scale)
    # up when rest is over half a byte, or exactly half and whole is odd
    return whole + (2 * rest + (whole & 1) > scale)


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

    # Point k is lo + k * (hi - lo) / (steps - 1) = (a + k * b) / c.  Both
    # quotients below are int / int, correctly rounded as float(Fraction) is.
    a = lo.numerator * hi.denominator * (args.steps - 1)
    b = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    c = lo.denominator * hi.denominator * (args.steps - 1)
    # A point changes only grad_bytes, to an int >= 0, so the base plan's
    # checks cover it: each point is priced from those jobs and the cluster's
    # terms, without a plan.
    terms, comp = cost_terms(plan.cluster), comp_time(plan.jobs[0])
    rows = []
    for k in range(args.steps):
        p = a + k * b
        comm_times = _sync_times(terms, [_payload(terms, comp, p, c)]) * len(plan.jobs)
        sequential = _sequential_makespan(plan.jobs, comm_times)
        crossover = _run(Policy.CROSSOVER, plan.jobs, comm_times, None)[1]
        rows.append(f"{p / c!r},{sequential / crossover!r}")

    out = Path(args.out) / "sweep.csv"
    _write([out], ["rho,speedup\n" + "\n".join(rows) + "\n"])
    print(f"{scenario.name}: {args.steps} ratio points "
          f"[{float(lo):g}, {float(hi):g}] -> {out}")
    return EXIT_OK


_EQUIV_JOB_COUNTS = (1, 2, 3)
_EQUIV_WORKER_COUNTS = (1, 2, 4)


def _equiv_configs(n_jobs: int, workers: int, seed: int) -> list[SgdConfig]:
    from .equivalence import LossKind, SgdConfig

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
    from .equivalence import _check_cells

    grid = [(n_jobs, workers) for n_jobs in _EQUIV_JOB_COUNTS
            for workers in _EQUIV_WORKER_COUNTS]
    reports = _check_cells([(_equiv_configs(n_jobs, workers, args.seed),
                             _equiv_plan(n_jobs, workers, args.iters))
                            for n_jobs, workers in grid])
    worst = 0.0
    failure = None
    for (n_jobs, workers), rep in zip(grid, reports):
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


# main reuses the parser built on the first call: a parse keeps nothing on it,
# since --format starts each parse from its None default and appends to a new list.
@lru_cache(maxsize=None)
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
    args = build_parser().parse_args(argv)
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
