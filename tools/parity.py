"""Byte-parity gate: run the CLI in two trees and list every output that differs.

    python tools/parity.py BASE [HEAD] [--workdir DIR]

BASE and HEAD are git refs of this repository; HEAD defaults to the working
tree.  Each ref is exported with ``git archive`` into the work directory
(``--workdir``, else a temporary one that is removed afterwards), which
leaves no worktree metadata behind.  Both trees run the same commands as
``python -m colosim.cli`` from the tree's root, with its ``src`` on
``PYTHONPATH``:

* ``simulate`` with all four ``--format``s, a default ``sweep`` and
  ``validate-config`` on every bundled scenario;
* ``simulate`` on ``speedup_band`` at ``--iters 100000`` (200,000 rows),
  writing both trace files, and at its own budget with the default format
  and with ``--format chrome-trace`` alone;
* ``simulate``, writing both trace files, on each document of a fixed
  corpus of valid scenarios: one whose rounds hold more rows than a chunk
  the writer lays out at a time, one that runs many rounds before a round
  repeats, one whose name and job ids hold characters that JSON escapes
  (``"``, ``\\``, a tab, ``é`` and an astral character), one of 24 jobs
  with budgets 1 to 24, whose 24 regimes each last one round, and one of a
  repeated round whose job ids are ``{job}``, ``{n}``, ``%s`` and ``t{n}``;
* a 1000-point ``sweep`` of ``sweep_base`` over an irregular ratio range,
  and ``sweep`` on each document of a fixed corpus of scenarios whose sweep
  ends in an error;
* ``equivalence --iters 1`` (the shortest trajectories, two rows per
  lane), ``--iters 3`` and ``--iters 4`` (a repeated round of one copy,
  which the replay reader steps, and of two, whose second it extends),
  ``--iters 5``, ``--iters 17 --seed 9`` (one iteration past the first
  draw block), ``--iters 20``, ``--iters 60 --seed 123`` (the
  benchmark's size, at a seed the pinned grid digest covers) and
  ``--iters 1000 --seed 3`` (63 draw blocks, more than the draw cache holds);
* ``simulate`` and ``validate-config`` on each document of a fixed corpus of
  invalid scenarios, and a fixed set of invalid command lines.

With the five bundled scenarios that makes 101 commands.  Each command's
record is a directory ``<side>/<command>/`` holding its
``exit`` code, its ``stdout`` and ``stderr`` with its ``--out`` directory
written as ``<out>``, and its output files under ``out/``.  The two record
trees are compared file by file.  The exit status is 0 when no file
differs, else 1 after one line per difference.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Stands for the command's own output directory in its argv, stdout and stderr.
OUT = "<out>"

FORMATS = ("json", "csv", "table", "chrome-trace")

_JOB = {"job_id": "a", "forward_ms": 1, "backward_ms": 2, "grad_mb": 1, "iterations": 3}
_CLUSTER = {"workers": 2, "bandwidth_gbps": 10, "architecture": "ring_allreduce"}


def _doc(cluster: dict | None = None, jobs: list | None = None, **top) -> str:
    """A scenario document: one small valid job and cluster, with the given edits."""
    return json.dumps({"name": "corpus", "policy": "crossover",
                       "cluster": {**_CLUSTER, **(cluster or {})},
                       "jobs": [_JOB] if jobs is None else jobs, **top})


# Invalid scenario documents, each refused with its own message.
INVALID_DOCS: dict[str, str | bytes] = {
    "not_json": "{",
    "not_an_object": "[]",
    "not_utf8": b'{"name": "\xff"}',
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "int_past_4300_digits": _doc().replace('"workers": 2', '"workers": 1' + "0" * 4300),
    "duplicate_key": '{"name": "a", "name": "b"}',
    "unknown_top_key": _doc(extra=1),
    "unknown_cluster_key": _doc(cluster={"latency_ms": 1}),
    "unknown_job_key": _doc(jobs=[{**_JOB, "speed": 1}]),
    "bad_policy": _doc(policy="fastest"),
    "bad_architecture": _doc(cluster={"architecture": "mesh"}),
    "zero_workers": _doc(cluster={"workers": 0}),
    "bool_workers": _doc(cluster={"workers": True}),
    "workers_past_2_63": _doc(cluster={"workers": 2**63}),
    "float_iterations": _doc(jobs=[{**_JOB, "iterations": 1.5}]),
    "no_jobs": _doc(jobs=[]),
    "duplicate_job_id": _doc(jobs=[_JOB, _JOB]),
    "long_job_id": _doc(jobs=[{**_JOB, "job_id": "x" * 75}]),
    "lone_surrogate": _doc(name="\ud800"),
    "fraction_of_a_ns": _doc(jobs=[{**_JOB, "forward_ms": 1e-7}]),
    "zero_compute": _doc(jobs=[{**_JOB, "forward_ms": 0, "backward_ms": 0}]),
    "sum_past_2_63": _doc(jobs=[{**_JOB, "forward_ms": 9e12, "iterations": 2}]),
    "too_many_iterations": _doc(jobs=[{**_JOB, "iterations": 1_000_001}]),
    "unknown_profile": _doc(jobs=[{"job_id": "a", "profile": "alexnet"}]),
    "missing_iterations": _doc(jobs=[{k: v for k, v in _JOB.items() if k != "iterations"}]),
}

# Valid scenario documents whose sweep, with the given flags, is refused.
SWEEP_DOCS: dict[str, tuple[str, list[str]]] = {
    "sweep_one_worker_ring": (_doc(cluster={"workers": 1}), []),
    "sweep_unreachable_ratio": (_doc(cluster={"latency_us": 1}), ["--ratio-min", "1e-05"]),
    # 2 x 4e18 ns of compute fits, but a sync of 0.2 x compute takes the sum past 2^63
    "sweep_later_points_past_2_63": (_doc(jobs=[{**_JOB, "forward_ms": 4e12, "backward_ms": 0,
                                                 "iterations": 2}]),
                                     ["--ratio-min", "0.1", "--ratio-max", "0.2", "--steps", "3"]),
}

# Valid scenario documents whose trace files test the writer's chunking and
# escaping and the scheduler's regimes: 600 jobs make rounds longer than a
# 512-row chunk, the second one repeated; three jobs whose syncs outlast
# their computes by 20 ns run 1,668 rounds that do not repeat before the one
# that does; a name and job ids hold characters that JSON escapes; and 24
# jobs with budgets 1 to 24 run 24 regimes of one round each; and four jobs
# whose ids spell the writer's slots and %-format run a round that repeats
# 38 times, each job's compute lasting differently.
_ESCAPED = '"\\\t\u00e9\U0001f600'
SIMULATE_DOCS: dict[str, str] = {
    "round_past_a_chunk": _doc(jobs=[{**_JOB, "job_id": f"j{k}"} for k in range(600)]),
    "long_transient": _doc(cluster={"latency_us": 0.01},
                           jobs=[{**_JOB, "job_id": f"j{k}", "forward_ms": 0.05,
                                  "backward_ms": 0.05, "grad_mb": 0.125, "iterations": 3000}
                                 for k in range(3)]),
    "escaped_names": _doc(name=f"corpus {_ESCAPED}",
                          jobs=[{**_JOB, "job_id": f"{c}{k}"}
                                for k, c in enumerate([_ESCAPED, *_ESCAPED])]),
    "many_regimes": _doc(jobs=[{**_JOB, "job_id": f"j{k}", "iterations": k}
                               for k in range(1, 25)]),
    "placeholder_ids": _doc(jobs=[{**_JOB, "job_id": job_id, "forward_ms": k + 1,
                                   "iterations": 40}
                                  for k, job_id in enumerate(["{job}", "{n}", "%s", "t{n}"])]),
}

_GOLDEN = ["--config", "scenarios/golden_2jobs.json"]

# Invalid command lines, and the help texts.
INVALID_ARGV: dict[str, list[str]] = {
    "no_command": [],
    "unknown_command": ["frobnicate"],
    "help": ["--help"],
    "simulate_help": ["simulate", "--help"],
    "simulate_no_config": ["simulate", "--out", OUT],
    "simulate_missing_file": ["simulate", "--config", "scenarios/missing.json", "--out", OUT],
    "simulate_bad_format": ["simulate", *_GOLDEN, "--out", OUT, "--format", "xml"],
    "simulate_iters_abc": ["simulate", *_GOLDEN, "--out", OUT, "--iters", "abc"],
    "simulate_iters_zero": ["simulate", *_GOLDEN, "--out", OUT, "--iters", "0"],
    "simulate_iters_past_bound": ["simulate", *_GOLDEN, "--out", OUT, "--iters", "600000"],
    "sweep_one_step": ["sweep", *_GOLDEN, "--out", OUT, "--steps", "1"],
    "sweep_nan_ratio": ["sweep", *_GOLDEN, "--out", OUT, "--ratio-min", "nan"],
    "sweep_ratios_reversed": ["sweep", *_GOLDEN, "--out", OUT,
                              "--ratio-min", "2", "--ratio-max", "1"],
    "sweep_steps_past_bound": ["sweep", *_GOLDEN, "--out", OUT, "--steps", "1001"],
    "equivalence_zero_iters": ["equivalence", "--iters", "0"],
    "equivalence_negative_seed": ["equivalence", "--seed", "-1"],
}


def commands(scenarios: list[str], corpus: Path) -> dict[str, list[str]]:
    """Each command's name and argv, the same for both trees."""
    runs = {}
    for name in scenarios:
        config = ["--config", f"scenarios/{name}.json"]
        runs[f"simulate-{name}"] = ["simulate", *config, "--out", OUT,
                                    *[arg for fmt in FORMATS for arg in ("--format", fmt)]]
        runs[f"sweep-{name}"] = ["sweep", *config, "--out", OUT]
        runs[f"validate-{name}"] = ["validate-config", *config]
    runs["simulate-speedup_band-iters-100000"] = [
        "simulate", "--config", "scenarios/speedup_band.json", "--out", OUT,
        "--iters", "100000", "--format", "json", "--format", "chrome-trace"]
    band = ["--config", "scenarios/speedup_band.json", "--out", OUT]
    runs["simulate-speedup_band-default-format"] = ["simulate", *band]
    runs["simulate-speedup_band-chrome-trace-only"] = ["simulate", *band,
                                                       "--format", "chrome-trace"]
    for name in SIMULATE_DOCS:
        runs[f"doc-simulate-{name}"] = ["simulate", "--config", str(corpus / f"{name}.json"),
                                        "--out", OUT, "--format", "json",
                                        "--format", "chrome-trace"]
    runs["sweep-sweep_base-steps-1000"] = [
        "sweep", "--config", "scenarios/sweep_base.json", "--out", OUT, "--steps", "1000",
        "--ratio-min", "0.123456789", "--ratio-max", "3.9"]
    runs["equivalence-1"] = ["equivalence", "--iters", "1"]
    runs["equivalence-3"] = ["equivalence", "--iters", "3"]
    runs["equivalence-4"] = ["equivalence", "--iters", "4"]
    runs["equivalence-5"] = ["equivalence", "--iters", "5"]
    runs["equivalence-17-seed-9"] = ["equivalence", "--iters", "17", "--seed", "9"]
    runs["equivalence-20"] = ["equivalence", "--iters", "20"]
    runs["equivalence-60-seed-123"] = ["equivalence", "--iters", "60", "--seed", "123"]
    runs["equivalence-1000-seed-3"] = ["equivalence", "--iters", "1000", "--seed", "3"]
    for name in INVALID_DOCS:
        config = ["--config", str(corpus / f"{name}.json")]
        runs[f"doc-simulate-{name}"] = ["simulate", *config, "--out", OUT]
        runs[f"doc-validate-{name}"] = ["validate-config", *config]
    for name, (_, flags) in SWEEP_DOCS.items():
        runs[f"doc-{name}"] = ["sweep", "--config", str(corpus / f"{name}.json"),
                               "--out", OUT, *flags]
    for name, argv in INVALID_ARGV.items():
        runs[f"argv-{name}"] = argv
    return runs


def write_corpus(corpus: Path) -> None:
    corpus.mkdir(parents=True, exist_ok=True)
    docs = {**INVALID_DOCS, **SIMULATE_DOCS,
            **{name: doc for name, (doc, _) in SWEEP_DOCS.items()}}
    for name, text in docs.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
        (corpus / f"{name}.json").write_bytes(data)


def export(ref: str, dest: Path) -> Path:
    """Extract ``git archive ref`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _env(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80",
            "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


def check_import(tree: Path) -> None:
    """Fail unless ``python`` with the tree's environment imports its own ``colosim``."""
    probe = "import colosim.cli; print(colosim.cli.__file__)"
    found = subprocess.run([sys.executable, "-c", probe], cwd=tree, env=_env(tree),
                           check=True, capture_output=True, text=True).stdout.strip()
    if not Path(found).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"parity: {tree} imports colosim from {found}")


def record(tree: Path, argv: list[str], where: Path) -> None:
    """Run ``colosim argv`` in ``tree`` and write its record to ``where``."""
    out = where / "out"
    where.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-m", "colosim.cli",
                           *[str(out) if arg == OUT else arg for arg in argv]],
                          cwd=tree, env=_env(tree), capture_output=True)
    (where / "exit").write_text(f"{done.returncode}\n")
    for name, data in (("stdout", done.stdout), ("stderr", done.stderr)):
        (where / name).write_bytes(data.replace(os.fsencode(out), OUT.encode()))


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(base: Path, head: Path) -> list[str]:
    """One line per file that is in one record tree only or differs between the two."""
    lines = []
    base_files, head_files = _files(base), _files(head)
    for name in sorted(base_files | head_files):
        if name not in head_files:
            lines.append(f"{name}: only in base")
        elif name not in base_files:
            lines.append(f"{name}: only in head")
        elif not filecmp.cmp(base / name, head / name, shallow=False):
            a, b = (base / name).read_bytes(), (head / name).read_bytes()
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lines.append(f"{name}: differs from byte {at} (sizes {len(a)} and {len(b)})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the tree to compare against")
    parser.add_argument("head", nargs="?", help="git ref to check (default: the working tree)")
    parser.add_argument("--workdir", type=Path,
                        help="directory for the exported trees and records (kept)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as temp:
        # absolute, since every command runs from its tree's root
        work = (args.workdir or Path(temp)).resolve()
        trees = {"base": export(args.base, work / "tree-base"),
                 "head": REPO if args.head is None else export(args.head, work / "tree-head")}
        scenarios = sorted({p.stem for tree in trees.values()
                            for p in (tree / "scenarios").glob("*.json")})
        write_corpus(work / "corpus")
        runs = commands(scenarios, work / "corpus")
        for side, tree in trees.items():
            check_import(tree)
            for name, command in runs.items():
                record(tree, command, work / side / name)
        differences = compare(work / "base", work / "head")
    for line in differences:
        print(line)
    print(f"parity: {len(runs)} commands, {len(differences) or 'no'} "
          f"difference{'' if len(differences) == 1 else 's'}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
