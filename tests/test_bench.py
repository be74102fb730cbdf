"""``tools/bench.py`` summarizes alternating A/B records: medians, quartiles, wins, change."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench  # noqa: E402


def _records(case, parent, change, **counts):
    """One record per side and pair, the given metric values in pair order."""
    return [{"case": case, "pair": k, "side": side, **counts,
             "metrics": {name: values[k] for name, values in metrics.items()}}
            for k in range(len(next(iter(parent.values()))))
            for side, metrics in (("parent", parent), ("change", change))]


def test_a_lower_is_better_metric():
    records = _records("perfbench:sgd", {"op_p50_ms": [5.0, 6.0, 4.0, 7.0, 5.5]},
                       {"op_p50_ms": [4.0, 6.0, 4.5, 3.0, 5.0]}, attempted=4, failed=0)
    assert bench.summarize(records, {"op_p50_ms": True}) == {"perfbench:sgd": {
        "op_p50_ms": {
            "parent_median": 5.5, "change_median": 4.5,
            # exclusive quartiles of 4, 5, 5.5, 6, 7
            "parent_q1": 4.5, "parent_q3": 6.5,
            "change_wins": 3,  # the tie in pair 1 wins for neither side
            "pairs": 5, "change_pct": pytest.approx(4.5 / 5.5 - 1)},
        "failed_ops": {"parent": 0, "change": 0},
        "attempted_ops": {"parent": 20, "change": 20}}}


def test_a_higher_is_better_metric_and_op_counts_per_case():
    records = (_records("perfbench:sgd", {"sim_iters_per_s": [10.0, 20.0, 30.0]},
                        {"sim_iters_per_s": [15.0, 10.0, 40.0]}, attempted=7, failed=1)
               + _records("perfbench:export", {"op_p50_ms": [1.0, 2.0]},
                          {"op_p50_ms": [3.0, 1.0]}, attempted=5, failed=0))
    summary = bench.summarize(records, {"sim_iters_per_s": False, "op_p50_ms": True})
    assert list(summary) == ["perfbench:sgd", "perfbench:export"]
    sgd = summary["perfbench:sgd"]
    assert sgd["sim_iters_per_s"]["change_wins"] == 2
    assert sgd["sim_iters_per_s"]["change_pct"] == pytest.approx(15 / 20 - 1)
    assert (sgd["sim_iters_per_s"]["parent_q1"], sgd["sim_iters_per_s"]["parent_q3"]) == (10, 30)
    assert sgd["failed_ops"] == {"parent": 3, "change": 3}
    assert sgd["attempted_ops"] == {"parent": 21, "change": 21}
    assert summary["perfbench:export"]["op_p50_ms"]["change_wins"] == 1
    assert summary["perfbench:export"]["failed_ops"] == {"parent": 0, "change": 0}


def test_run_length_and_directions_come_from_the_benchmark_declaration():
    seconds, lower = bench.declaration()
    assert seconds == json.loads((bench.REPO / "BENCHMARK.json").read_text())["run_seconds"]
    assert lower["op_p50_ms"] and lower["peak_rss_mb"] and lower["setup_s"]
    assert not lower["sim_iters_per_s"]


@pytest.mark.parametrize("case, fmt", [("large-json", "json"), ("large-chrome", "chrome-trace")])
def test_a_large_case_is_one_simulate_of_speedup_band(case, fmt, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "large_sample", lambda *args: calls.append(args) or {})
    bench.sample(bench.REPO, case, 101, 15.0)
    assert calls == [(bench.REPO, fmt, 100_000)]


@pytest.mark.parametrize("fmt", ["json", "chrome-trace"])
def test_a_large_sample_times_the_call_and_reads_the_peak_rss(fmt, monkeypatch):
    # a fresh process of the working tree, at a small budget
    printed = []
    run = bench._run
    monkeypatch.setattr(bench, "_run", lambda *args: printed.append(run(*args)) or printed[-1])
    record = bench.large_sample(bench.REPO, fmt, 50)
    assert record["attempted"] == bench.LARGE_CALLS and record["failed"] == 0
    assert set(record["metrics"]) == {"wall_s", "peak_rss_mb"}
    assert 0 < record["metrics"]["wall_s"] < 60
    assert 5 < record["metrics"]["peak_rss_mb"] < 1000
    # the CLI's summary line once a call: speedup_band's 2 jobs x 50 iterations x 3 spans
    lines = printed[0].splitlines()[:-1]
    assert len(lines) == bench.LARGE_CALLS
    assert all(line.startswith("speedup_band: policy=crossover ") and " spans=300 -> " in line
               for line in lines)


def test_an_unknown_case_is_refused_before_any_run(tmp_path, capsys):
    with pytest.raises(SystemExit) as refused:
        bench.main(["HEAD", "large-xml", "--out", str(tmp_path / "bench.json")])
    assert refused.value.code == 2
    assert "unknown case 'large-xml'" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
