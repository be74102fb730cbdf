"""Byte-identity gate: every bundled scenario's outputs, the traces of three
in-test heterogeneous plans, three `colosim sweep` runs and two `colosim
equivalence` transcripts, pinned by sha256.

The digests were generated by the event-engine scheduler that preceded the
dispatch recurrence, so they are an independent record of the schedule it
produced: any change to span order, timing, metrics or serialization shows
up here.  Regenerate the table (only for a deliberate, documented format
change) with ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from colosim.cli import main
from colosim.comm import Architecture, ClusterSpec
from colosim.engine import trace_to_chrome_json, trace_to_json
from colosim.scenario import load_config
from colosim.scheduler import Policy, SchedulePlan, simulate
from colosim.workload import JobProfile

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))
FORMATS = ("json", "csv", "table", "chrome-trace")

GOLDEN = {
    "golden_2jobs": {
        "other_policy_trace.json":
            "4ba23576f429abf1e07ea3c01171bebb7d89d1989f51b26de3a90ceaddc437df",
        "simulate": {
            "metrics.csv":
                "32ff9753ff8f01a90c958f190ef0f934d1a5615cf15fe97d27da9aef68fd87be",
            "metrics.json":
                "49009edd59f7d6c40254a69fe3fb0d0f746f6d9012836d91d4449bef07a28b2f",
            "metrics.txt":
                "057fb0d1076ac1ed472e7a141687612fe8cd6466c9c44ce2527a17eef815baf0",
            "trace.json":
                "16c384e319287ad0f022d27f7415972212937e91fb89561e12136151ddde916d",
            "trace_chrome.json":
                "f96098f07348c0bde8ebe058faaab24b4779afa9f4b5d4fa38eac4b510ed2a39",
        },
    },
    "resnet50_2jobs_100g": {
        "other_policy_trace.json":
            "3043d5c097e267bd6dad1444ea629a58aa0de4bc5772459eb9cc88e42937d82d",
        "simulate": {
            "metrics.csv":
                "707224eca81070c50f02352484f9c6dc2cb98f657dfdc370c5d29a4270f71201",
            "metrics.json":
                "369c895a7fc4c0f3a04b9658ac7ae932b49a8c4d2b3bedbbdf2e51f040029667",
            "metrics.txt":
                "1253c66806e215140b419b36746f845c416cd5b4ad2af7818762b06700b45dfc",
            "trace.json":
                "06ef44d9ff1265b2dbfd3b50f687033008b31eedb55cce0bd7dcef7124fefc02",
            "trace_chrome.json":
                "3f4aa9787497b4cee62aca0b59e9e5d5df2eaa76328920b6187197890d8cb9af",
        },
    },
    "speedup_band": {
        "other_policy_trace.json":
            "7ba4def63fdec4584a28fed1d3291605933f7a063beac493b9eb7343f848bb21",
        "simulate": {
            "metrics.csv":
                "000e09ba2c6fb79b97a72e59a29d6a42b409330316623beeaca2501cef9ec183",
            "metrics.json":
                "67cd657ddc27cc02ad34503c1baaa0d636041fdc26aa021f498df47e3bba4c83",
            "metrics.txt":
                "c20e008181435814d8b3611a1287a0441fac15ca9d91d2c35725bfcdebce19d9",
            "trace.json":
                "7444b38db4dcb4e72849482fbf07454026adc33952e2d5b53f3f7c02b7c49ef3",
            "trace_chrome.json":
                "341b31686c7cbd25fbc45f0289308dfebc4bd30d9b0b00813315de6985ab7576",
        },
    },
    "sweep": {
        "sweep.csv":
            "edc0cd9b713092b5473c30c5a535e949367d9e620fdba59af14def61a86141e3",
    },
    "sweep_base": {
        "other_policy_trace.json":
            "176c28dab99acd3928a6c92531844912923e6ab395d1bd0b8f952e58ec665a56",
        "simulate": {
            "metrics.csv":
                "151fa01cb5cc7174a7286ca57cfd109603f55210178be8af9f4a59075d27731e",
            "metrics.json":
                "009c5441251c775386087ebd90c3ef99533a927d0acc2eb48c4a9f52e6a364c1",
            "metrics.txt":
                "452fc450aa6aea546e147daa2281e6533a485a4fd7736ec364fa0e055c1be883",
            "trace.json":
                "08cbeb632812eb1ec978d847b7a6392bb78dd8e22632ecebf071bbf7ce5daa17",
            "trace_chrome.json":
                "f68212378c49193c3436578dd5b84b8c6525eb548e65ba5792af59935f87710b",
        },
    },
    "vgg16_2jobs_10g": {
        "other_policy_trace.json":
            "36fdf3330070dcd5cee72521939c00673f5fe08cbdb8d75116337f61dfadd578",
        "simulate": {
            "metrics.csv":
                "059e8c6aa66a4f183f9bda22c84a26853e06e8e93612f0b6c88dac6dd212b007",
            "metrics.json":
                "279bb4a1ead2694f49dec296297ff33c3d9e13c18b50ac0d9cf424f9f3bcb079",
            "metrics.txt":
                "09741f25f3ddaae5ddf1ca7dce4aaad49f15ee8ebbe629dbeb0b663b4fecb24a",
            "trace.json":
                "4668977d60fea2473f9d79266f37b0c0958482dec9e595f46a9271f6fba3d5d8",
            "trace_chrome.json":
                "116bc44dd413cd17e3836f2e420e75ded67c19a2f57f485a77c963b04d8d3ce5",
        },
    },
}


# Plans no bundled scenario covers: 3 to 5 jobs, unequal budgets (so the
# rotation skips finished jobs) and zero-length forward, backward and sync
# phases, under both architectures.  Jobs are
# (job_id, forward_ns, backward_ns, grad_bytes, iterations).
HETEROGENEOUS_PLANS = {
    "ring_3jobs": (
        ClusterSpec(workers=4, bandwidth_bytes_per_sec=1_000_000_000,
                    latency_per_message=3, architecture=Architecture.RING_ALLREDUCE),
        (("a", 0, 7, 40, 5), ("b", 5, 4, 12, 2), ("c", 3, 0, 90, 4)),
    ),
    "ps_4jobs": (
        ClusterSpec(workers=2, bandwidth_bytes_per_sec=2_000_000_000,
                    architecture=Architecture.PARAMETER_SERVER),
        (("w", 6, 2, 0, 3), ("x", 1, 1, 9, 6), ("y", 4, 0, 5, 1),
         ("z", 2, 3, 14, 4)),
    ),
    "ps_5jobs": (
        ClusterSpec(workers=8, bandwidth_bytes_per_sec=500_000_000,
                    latency_per_message=2, architecture=Architecture.PARAMETER_SERVER),
        (("p1", 10, 20, 7, 7), ("p2", 0, 3, 30, 2), ("p3", 8, 8, 1, 5),
         ("p4", 2, 0, 0, 3), ("p5", 5, 5, 11, 6)),
    ),
}

# Generated by the Span-per-phase trace engine, before traces became rows.
HETEROGENEOUS_GOLDEN = {
    "ps_4jobs": {
        "crossover": {
            "trace.json":
                "827bb44338bdfb11c2a3e5a879520cc10b817dec648133954088e30cbe17f6e3",
            "trace_chrome.json":
                "8fb919adb6cff2c52c319c89c8efd0d93629f6b5208b950a6609c69f0d3701a5",
        },
        "sequential": {
            "trace.json":
                "2df26845dece068c9b8159bf81176405b07b68628021a347e3c97d5f6f27f57f",
            "trace_chrome.json":
                "89d145a49637673dbec89bbf13cd817355ac9577feedccf5890e85c8a2a8149e",
        },
    },
    "ps_5jobs": {
        "crossover": {
            "trace.json":
                "5b72c1f92362f774eb5592a05b489dc487032d4a1b2f007b218768ad76a274cb",
            "trace_chrome.json":
                "2fed2f78df474442183353cff03317cae8bdecd9fbb4a1bc0a7f093c7401a6a9",
        },
        "sequential": {
            "trace.json":
                "28b25ce773c17ce38cbd08ebb4f4c711b9a73c0c79107f38cc6304cc143eaa69",
            "trace_chrome.json":
                "e9f76258571720e0b12c4a794661bad7ce04338a00829bc121795fd35d625e3c",
        },
    },
    "ring_3jobs": {
        "crossover": {
            "trace.json":
                "e33da3b6bd90c8f0779ffbb8644947930383e642030fb28160128fec8c3207c4",
            "trace_chrome.json":
                "1570e6d61a0e57b5f7dee2db46a258d3cba24840d806b965067a903b30d17d9b",
        },
        "sequential": {
            "trace.json":
                "687a2498ccdc5f09dd7199aecd975f08074d97aa1bc02f3ff1f8d99d1b1c9fe1",
            "trace_chrome.json":
                "8dfa808e08df021d647dac860b813649adf61141d79b21f32269e4af678e33e9",
        },
    },
}

# `colosim sweep` runs on sweep_base beyond the default one -> (budgets that
# replace its jobs' iterations, flags) and the sha256 of sweep.csv,
# generated when every point still ran two full simulations.  With budgets
# 1000 and 370, each point's plans change regime when the shorter job ends.
SWEEP_RUNS = {
    "wide": (None, "--ratio-min 0.3 --ratio-max 2.1 --steps 40"),
    "unequal_budgets": ((1000, 370), "--steps 20"),
}
SWEEP_GOLDEN = {
    "unequal_budgets": "6cc5b8a976d12b7a1d3aa0de432f77c02aef75ed2ffd12648ebcb46599bbc39e",
    "wide": "20dc3f1f0c541e6724022a11db292535f868214cb18f2077b253dee681f92c4b",
}

# `colosim equivalence` flags -> (stdout sha256, stderr sha256, exit code).
# Generated by the hand-written rotation that preceded the trace replay.
EQUIVALENCE_GOLDEN = {
    "--iters 60 --seed 0": (
        "9ed6110efda55c5a25eab36038069d8696b256858b2b246df2b6b48c18e329c3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def simulate_digests(name: str, out: Path) -> dict[str, str]:
    """Digests of every file `colosim simulate` writes with all four formats."""
    argv = ["simulate", "--config", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)]
    for fmt in FORMATS:
        argv += ["--format", fmt]
    assert main(argv) == 0
    return _files(out)


def other_policy_digest(name: str) -> str:
    """Digest of trace.json under the policy the scenario file does not name."""
    plan = load_config(SCENARIO_DIR / f"{name}.json").plan()
    other = (Policy.SEQUENTIAL if plan.policy is Policy.CROSSOVER
             else Policy.CROSSOVER)
    trace = simulate(SchedulePlan(other, plan.jobs, plan.cluster))
    return _sha256(trace_to_json(trace).encode())


def sweep_digests(out: Path) -> dict[str, str]:
    """Digests of the files a default `colosim sweep` on sweep_base writes."""
    argv = ["sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"), "--out", str(out)]
    assert main(argv) == 0
    return _files(out)


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_outputs_are_byte_identical(name, tmp_path):
    assert simulate_digests(name, tmp_path) == GOLDEN[name]["simulate"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_other_policy_trace_is_byte_identical(name):
    assert other_policy_digest(name) == GOLDEN[name]["other_policy_trace.json"]


def test_default_sweep_is_byte_identical(tmp_path):
    assert sweep_digests(tmp_path) == GOLDEN["sweep"]


def sweep_run_digest(run: str, tmp: Path) -> str:
    """sha256 of the sweep.csv that one SWEEP_RUNS entry writes."""
    budgets, flags = SWEEP_RUNS[run]
    doc = json.loads((SCENARIO_DIR / "sweep_base.json").read_text())
    if budgets:
        for job, budget in zip(doc["jobs"], budgets):
            job["iterations"] = budget
    tmp.mkdir(parents=True, exist_ok=True)
    config = tmp / "sweep_base.json"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", str(config), "--out", str(tmp), *flags.split()]) == 0
    return _sha256((tmp / "sweep.csv").read_bytes())


@pytest.mark.parametrize("run", sorted(SWEEP_RUNS))
def test_sweep_runs_are_byte_identical(run, tmp_path):
    assert sweep_run_digest(run, tmp_path) == SWEEP_GOLDEN[run]


def heterogeneous_digests(name: str, policy: Policy) -> dict[str, str]:
    """Digests of both trace files for one in-test plan under one policy."""
    cluster, jobs = HETEROGENEOUS_PLANS[name]
    trace = simulate(SchedulePlan(policy, tuple(JobProfile(*j) for j in jobs), cluster))
    return {"trace.json": _sha256(trace_to_json(trace).encode()),
            "trace_chrome.json": _sha256(trace_to_chrome_json(trace).encode())}


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
@pytest.mark.parametrize("name", sorted(HETEROGENEOUS_PLANS))
def test_heterogeneous_traces_are_byte_identical(name, policy):
    assert heterogeneous_digests(name, policy) == HETEROGENEOUS_GOLDEN[name][policy.value]


def equivalence_transcript(flags: str) -> tuple[str, str, int]:
    """Digests of what `colosim equivalence <flags>` prints, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["equivalence", *flags.split()])
    return _sha256(out.getvalue().encode()), _sha256(err.getvalue().encode()), code


@pytest.mark.parametrize("flags", sorted(EQUIVALENCE_GOLDEN))
def test_equivalence_transcript_is_byte_identical(flags):
    assert equivalence_transcript(flags) == EQUIVALENCE_GOLDEN[flags]


def _table() -> dict:
    table: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            table[name] = {
                "simulate": simulate_digests(name, Path(tmp) / name),
                "other_policy_trace.json": other_policy_digest(name),
            }
        table["sweep"] = sweep_digests(Path(tmp) / "sweep")
        table["sweep_runs"] = {run: sweep_run_digest(run, Path(tmp) / run)
                               for run in sorted(SWEEP_RUNS)}
    table["heterogeneous"] = {
        name: {policy.value: heterogeneous_digests(name, policy) for policy in Policy}
        for name in sorted(HETEROGENEOUS_PLANS)
    }
    table["equivalence"] = {flags: equivalence_transcript(flags)
                            for flags in sorted(EQUIVALENCE_GOLDEN)}
    return table


if __name__ == "__main__":
    import pprint

    with contextlib.redirect_stdout(io.StringIO()):
        table = _table()
    pprint.pprint(table, width=100, sort_dicts=True)
