"""colosim benchmark: host cost of the simulator on four seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {export,sweep,crowd,sgd,all} \
        --seed N --seconds S --trace {0,1}

Each workload runs in one process as a closed loop with one client: an
operation starts only after the previous one finished and was checked.
After an untimed, checked warm-up (for ``export``, every bundled scenario),
operations cycle over the workload's seeded scenarios until ``--seconds``
have passed.  Every output is checked against the independent recurrence in
``reference.py`` outside the timed region, and a mismatch, a nonzero exit
or an exception fails the operation.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
processes of importing ``colosim.cli`` and loading the scenario files into
plans), ``op_p50_ms`` (median operation latency), ``sim_iters_per_s``
(simulated job-iterations, or SGD steps for ``sgd``, per host second of
operations) and ``peak_rss_mb`` (peak resident memory of the process).

Times are host-speed normalized (see ``calibration.py``); the record line
also gives the unnormalized figures.

``--trace 1`` wraps each layer's public function (see ``spans.py``), runs
whole cycles for half the time, repeats exactly those operations untraced,
and prints per-layer metrics: calls and self seconds (unnormalized) per
operation, the share of operation time each layer spends itself,
serializer sizes and RSS high-water rises, error counts, the simulated
statistics of the produced traces, and the tracing overhead (traced over
untraced normalized time of the same operations).

The line before the result is a JSON record of the environment, the sample
count behind each metric, failures and the simulated statistics; the last
line is the result object.  ``--workload all`` runs each workload in its
own process and prints every metric by name, with its unit.
"""

from __future__ import annotations

import os

# The CLI imports numpy; keep BLAS/OpenMP to one thread so the benchmark
# measures one client on one core.  Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
from calibration import calibrate, normalize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("export", "sweep", "crowd", "sgd")
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs operations one at a time and keeps their timings and outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []  # normalized, see calibration.py
        self.raw: list[float] = []
        self.calibrations: list[float] = []
        self.iters = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.stats: dict[str, dict[str, int]] = {}

    def one(self, op, recorder=None, timed=True) -> float:
        """Run, time and check one operation; returns its normalized latency."""
        from workloads import Checked

        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        try:
            outcome = recorder.span("op", op.run) if recorder else op.run()
        except Exception:
            outcome = None
            checked = Checked(False, why=traceback.format_exc())
        raw = time.perf_counter() - start
        # Host speed drifts within seconds; calibrating on both sides of the
        # operation follows it better than one side alone.
        calibration_s = (before + calibrate()) / 2
        elapsed = normalize(raw, calibration_s)
        if outcome is not None:
            try:
                checked = op.check(outcome)
            except Exception:
                checked = Checked(False, why=traceback.format_exc())
        del outcome
        for key, stats in checked.stats.items():
            if self.stats.setdefault(key, stats) != stats:
                checked = Checked(False,
                                  why=f"{key}: simulated statistics not repeatable")
        self.attempted += 1
        if not checked.ok:
            self.failures.append(f"{op.key}: {checked.why}")
            print(f"FAIL {op.key}: {checked.why}", file=sys.stderr)
        elif timed:
            self.latencies.append(elapsed)
            self.raw.append(raw)
            self.calibrations.append(calibration_s)
            self.iters += checked.iters
        return elapsed

    def run_for(self, seconds: float, recorder=None) -> list:
        """Run operations until `seconds` have passed; returns the ops run.

        The first cycle always completes, so every scenario runs at least
        once.  After it an untraced run stops after any operation; a traced
        run stops only after a whole cycle, so its per-operation counts
        depend on the seed alone.
        """
        ran = []
        start = time.perf_counter()
        index = 0
        while True:
            for op in self.workload.cycle(index):
                self.one(op, recorder)
                ran.append(op)
                if index and recorder is None and time.perf_counter() - start >= seconds:
                    return ran
            index += 1
            if time.perf_counter() - start >= seconds:
                return ran

    def sim_stats(self) -> dict[str, int]:
        """Simulated statistics summed over the distinct scenarios run."""
        from reference import SIM_STATS

        return {stat: sum(s[stat] for s in self.stats.values()) for stat in SIM_STATS}


def probe_setup(files: list[str]) -> dict:
    """Run setup_probe.py in a fresh interpreter and return its timings."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *files],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
    probe = json.loads(proc.stdout)
    if not Path(probe["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported colosim from {probe['module']}")
    return probe


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def layer_metrics(summary: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced run; see the module docstring."""
    import spans

    ops = summary["op"]
    n = ops["calls"]
    out = {
        "op.count": (n, "count"),
        "op.mean_s": (ops["total_s"] / n, "s"),
        "op.self_s": (ops["self_s"] / n, "s"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for name in spans.LAYERS:
        agg = summary.get(name, empty)
        out[f"{name}.calls"] = (agg["calls"] / n, "count")
        out[f"{name}.self_s"] = (agg["self_s"] / n, "s")
    for name in ("engine.trace_to_json", "engine.trace_to_chrome_json"):
        agg = summary.get(name, empty)
        out[f"{name}.bytes"] = (agg.get("bytes", 0) / max(1, agg["calls"]), "bytes")
        out[f"{name}.rss_rise_mb"] = (agg.get("rss_rise_mb", 0.0), "MB")
    leaves = [summary.get(f"scheduler.schedule_{p}", empty)
              for p in ("crossover", "sequential")]
    spans_total = sum(agg.get("spans", 0) for agg in leaves)
    out["scheduler.spans"] = (spans_total / n, "count")
    out["scheduler.ns_per_span"] = (
        sum(agg["self_s"] for agg in leaves) * 1e9 / spans_total if spans_total else 0.0,
        "ns")
    out["equivalence.sgd_steps"] = (
        sum(summary.get(f"equivalence.run_{k}", empty).get("sgd_steps", 0)
            for k in ("isolated", "crossover")) / n, "count")
    for layer in dict.fromkeys(name.split(".")[0] for name in spans.LAYERS):
        mine = [agg for name, agg in summary.items() if name.split(".")[0] == layer]
        out[f"{layer}.errors"] = (sum(agg.get("errors", 0) for agg in mine), "count")
        out[f"{layer}.share"] = (sum(agg["self_s"] for agg in mine) / ops["total_s"],
                                 "ratio")
    return out


def run_workload(args, tmp: Path) -> tuple[dict, dict]:
    inputs = gen.write_inputs(args.workload, args.seed, tmp, ROOT)
    files = [str(path) for path, _, _ in inputs]
    # The first probe compiles bytecode and fills the file cache; not timed.
    probes = [probe_setup(files) for _ in range(1 + (0 if args.trace else SETUP_SAMPLES))]
    setup = [normalize(p["setup_s"], p["calibration_s"]) for p in probes[1:]]

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import colosim.cli
    import_s = time.perf_counter() - start
    if not Path(colosim.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported colosim from {colosim.cli.__file__}")
    import numpy
    import reference
    import workloads

    profiles = reference.load_profiles(SRC / "colosim" / "data" / "profiles.json")
    workload = workloads.WORKLOADS[args.workload](inputs, args.seed, tmp, profiles)
    start = time.perf_counter()
    workload.setup()
    load_s = time.perf_counter() - start

    runner = Runner(workload)
    for op in workload.warmup():
        runner.one(op, timed=False)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "import_s": import_s, "load_s": load_s,
    }
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        try:
            ran = runner.run_for(args.seconds / 2, recorder)
        finally:
            recorder.uninstall()
        traced_s = sum(runner.latencies)
        untraced = Runner(workload)
        untraced.stats = runner.stats  # traced and untraced statistics must agree
        untraced_s = sum(untraced.one(op) for op in ran)
        runner.failures += untraced.failures
        runner.attempted += untraced.attempted
        summary = recorder.summary()
        metrics = layer_metrics(summary, traced_s, untraced_s)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["setup.load_s"] = (load_s, "s")
        for stat, value in runner.sim_stats().items():
            metrics[f"scheduler.sim_{stat}"] = (value, "ns")
        record["missing"] = sorted(set(spans.LAYERS) - recorder.present)
        record["absent"] = sorted(name for name in spans.LAYERS if name not in summary)
        samples = {"per_layer_ops": summary["op"]["calls"]}
    else:
        runner.run_for(args.seconds)
        n = len(runner.latencies)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (statistics.median(runner.latencies) * 1e3 if n else 0.0, "ms"),
            "sim_iters_per_s": (runner.iters / sum(runner.latencies) if n else 0.0,
                                "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = {"setup_s": len(setup), "op_p50_ms": n, "sim_iters_per_s": n,
                   "peak_rss_mb": 1}
        record["setup_samples_s"] = setup
        record["unnormalized"] = {
            "setup_s": statistics.median(p["setup_s"] for p in probes[1:]),
            "op_p50_ms": statistics.median(runner.raw) * 1e3 if n else 0.0,
            "sim_iters_per_s": runner.iters / sum(runner.raw) if n else 0.0,
            "calibration_ms": statistics.median(runner.calibrations) * 1e3 if n else 0.0,
        }
    failed = len(runner.failures)
    record.update({
        "samples": samples, "op_fail_ratio": failed / runner.attempted,
        "failures": runner.failures[:5], "sim_stats": runner.sim_stats(),
    })
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, record


def print_metrics(prefix: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{prefix}{name} = {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Each workload in its own process; every metric printed by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print_metrics(f"{name} ", result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "colosim" / "__init__.py").is_file():
        print(f"error: no colosim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, record = run_workload(args, Path(tmp))
    print_metrics(f"{args.workload} ", result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
