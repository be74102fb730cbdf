"""A/B timing harness: run benchmark cases on two trees in alternating fresh processes.

    python tools/bench.py REF CASE... --out FILE [--name NAME] [--head REF]
        [--pairs N] [--seed N]

REF is the git ref of the tree to compare against (the parent); the other
tree is the working tree, or ``--head``'s ref.  Each ref is exported with
``parity.export``, so no worktree is made.  A CASE is one of:

* ``perfbench:W``: ``perfbench/run.py --workload W --seed N --seconds S
  --trace 0`` from the tree's root, where S is ``BENCHMARK.json``'s
  ``run_seconds``; the sample is the metrics of the result line, the last
  line of its output, and its op counts;
* ``large-json`` and ``large-chrome``: ``colosim simulate`` of
  ``scenarios/speedup_band.json --iters 100000`` (200,000 rows) with
  ``--format json`` or ``--format chrome-trace`` (which writes trace.json
  too), called in process five times, each call one op; the sample is
  ``wall_s``, the fastest call's wall time (the interpreter's start and
  imports excluded; a busy host only adds time to a call), and
  ``peak_rss_mb``, the process's peak RSS (Linux only: it reads
  ``/proc/self/status``).  ``--seed`` does not apply.

Every sample is a fresh process, with BLAS held to one thread.  For each
case, pair k runs both trees back to back, the parent first when k is even.
The summary gives, per case and metric, each side's median, the parent's
quartiles (``statistics.quantiles(n=4)``, exclusive), the pairs the change
won (ties win for neither), and ``change_pct``, the change median over the
parent median, minus 1.  Which way is better comes from ``BENCHMARK.json``'s
``end_to_end`` list, and ``wall_s`` is better lower.  The records and the
summary go to the entry ``--name`` of the JSON document ``--out``, which
keeps its other entries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import parity

REPO = parity.REPO

# BLAS and OpenMP to one thread, as perfbench/run.py sets for itself.
_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}


def _run(tree: Path, argv: list[str]) -> str:
    """The stdout of ``python argv`` run from the tree's root with its ``src``."""
    done = subprocess.run([sys.executable, *argv], cwd=tree,
                          env={**parity._env(tree), **_THREADS},
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"bench: {argv[0]} in {tree} exited with {done.returncode}:\n"
                         f"{done.stderr}")
    return done.stdout


# The large-* cases: the trace format each writes, and the run of one sample,
# given the format and the budget.  It calls the CLI LARGE_CALLS times, each
# into a new directory removed after the call, and prints how many calls
# failed, the fastest call's wall time and the process's peak RSS as JSON.
# The peak is VmHWM, the high-water mark of the process's own memory since
# it started; ``ru_maxrss`` is no lower than the RSS of the process that
# spawned it, read when it did, so it would report the harness's size.
LARGE = {"large-json": "json", "large-chrome": "chrome-trace"}
LARGE_ITERS = 100_000
LARGE_CALLS = 5
_LARGE_RUN = """\
import json, sys, tempfile, time
from colosim.cli import main
fmt, iters, calls = sys.argv[1:]
failed, walls = 0, []
for _ in range(int(calls)):
    with tempfile.TemporaryDirectory(prefix="bench-large-") as out:
        start = time.perf_counter()
        failed += main(["simulate", "--config", "scenarios/speedup_band.json",
                        "--out", out, "--iters", iters, "--format", fmt]) != 0
        walls.append(time.perf_counter() - start)
with open("/proc/self/status") as status_file:
    peak_kb = next(int(line.split()[1]) for line in status_file if line.startswith("VmHWM:"))
print(json.dumps({"failed": failed, "wall_s": min(walls),
                  "peak_rss_mb": peak_kb / 1024}))
"""


def large_sample(tree: Path, fmt: str, iters: int) -> dict:
    """One fresh-process sample of speedup_band at ``iters`` writing ``fmt``: its metrics."""
    result = json.loads(_run(tree, ["-c", _LARGE_RUN, fmt, str(iters),
                                    str(LARGE_CALLS)]).splitlines()[-1])
    return {"attempted": LARGE_CALLS, "failed": result["failed"],
            "metrics": {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"]}}


def sample(tree: Path, case: str, seed: int, seconds: float) -> dict:
    """One fresh-process sample of ``case`` in ``tree``: its metrics and op counts."""
    if case in LARGE:
        return large_sample(tree, LARGE[case], LARGE_ITERS)
    workload = case.removeprefix("perfbench:")
    result = json.loads(_run(tree, ["perfbench/run.py", "--workload", workload,
                                    "--seed", str(seed), "--seconds", str(seconds),
                                    "--trace", "0"]).splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _commit(ref: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", ref], check=True,
                          capture_output=True, text=True).stdout.strip()


def declaration() -> tuple[float, dict[str, bool]]:
    """``BENCHMARK.json``'s run length, and whether each end-to-end metric is better lower."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def summarize(records: list[dict], lower: dict[str, bool]) -> dict:
    """Per case and metric: medians, the parent's quartiles, the change's wins and change_pct.

    ``records`` holds one dict per sample with its ``case``, ``pair``,
    ``side`` (``parent`` or ``change``) and ``metrics``, and ``attempted`` and
    ``failed`` op counts.
    """
    summary = {}
    for case in dict.fromkeys(r["case"] for r in records):
        runs = {(r["pair"], r["side"]): r for r in records if r["case"] == case}
        pairs = sorted({pair for pair, _ in runs})
        parent = [runs[p, "parent"] for p in pairs]
        change = [runs[p, "change"] for p in pairs]
        entry = {}
        for name in parent[0]["metrics"]:
            a = [r["metrics"][name] for r in parent]
            b = [r["metrics"][name] for r in change]
            q1, _, q3 = statistics.quantiles(a, n=4)
            sign = 1 if lower[name] else -1
            entry[name] = {
                "parent_median": statistics.median(a),
                "change_median": statistics.median(b),
                "parent_q1": q1,
                "parent_q3": q3,
                "change_wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
                "pairs": len(pairs),
                "change_pct": statistics.median(b) / statistics.median(a) - 1,
            }
        for count in ("failed", "attempted"):
            entry[f"{count}_ops"] = {"parent": sum(r[count] for r in parent),
                                     "change": sum(r[count] for r in change)}
        summary[case] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref of the parent tree")
    parser.add_argument("cases", nargs="+", metavar="CASE",
                        help="perfbench:W for a perfbench workload W, large-json or large-chrome")
    parser.add_argument("--head", help="git ref of the changed tree (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", type=Path, required=True, help="JSON document to write to")
    parser.add_argument("--name", default="runs", help="entry of --out to write")
    args = parser.parse_args(argv)
    for case in args.cases:
        if not case.startswith("perfbench:") and case not in LARGE:
            parser.error(f"unknown case {case!r}: expected perfbench:W, large-json or "
                         f"large-chrome")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    seconds, lower = declaration()
    lower["wall_s"] = True
    with tempfile.TemporaryDirectory(prefix="bench-") as temp:
        trees = {"parent": parity.export(args.ref, Path(temp) / "parent"),
                 "change": REPO if args.head is None
                 else parity.export(args.head, Path(temp) / "change")}
        for tree in trees.values():
            parity.check_import(tree)
        records = []
        for case in args.cases:
            for pair in range(args.pairs):
                for side in ("parent", "change")[::1 if pair % 2 == 0 else -1]:
                    records.append({"case": case, "pair": pair, "side": side,
                                    **sample(trees[side], case, args.seed, seconds)})
                    print(json.dumps(records[-1]), file=sys.stderr)
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document[args.name] = {
        "parent": _commit(args.ref),
        "change": "working tree" if args.head is None else _commit(args.head),
        "argv": sys.argv[1:] if argv is None else argv,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": len(os.sched_getaffinity(0))},
        "summary": summarize(records, lower),
        "records": records,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    for case, entry in document[args.name]["summary"].items():
        for name, s in entry.items():
            if "change_pct" in s:
                print(f"{case} {name}: {s['parent_median']:.6g} -> {s['change_median']:.6g} "
                      f"({s['change_pct']:+.1%}, {s['change_wins']}/{s['pairs']} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
