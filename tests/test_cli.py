import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colosim import cli, comm, engine, scheduler
from colosim.cli import (
    MAX_EQUIV_ITERS,
    MAX_SWEEP_STEPS,
    _payload,
    _write,
    main,
)
from colosim.comm import Architecture, ClusterSpec, comm_time, cost_terms
from colosim.engine import trace_to_chrome_json, trace_to_json
from colosim.errors import ConfigError
from colosim.scenario import MAX_JOB_ITERATIONS, load_config
from colosim.scheduler import Policy, SchedulePlan, simulate
from oracles import sweep_reference, trace_to_chrome_json_reference, trace_to_json_reference

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = str(SCENARIO_DIR / "golden_2jobs.json")


def run(*argv):
    return main(list(argv))


def huge_config(tmp_path) -> str:
    """One job whose 3 iterations of 9e18 ns compute overflow 2^63 in all."""
    doc = json.loads(Path(GOLDEN).read_text())
    doc["jobs"] = [{"job_id": "big", "forward_ms": 9000000000000, "backward_ms": 0,
                    "grad_mb": 1e-6, "iterations": 3}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    def test_golden_metrics_json(self, tmp_path):
        code = run("simulate", "--config", GOLDEN, "--out", str(tmp_path))
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["makespan_ns"] == 13
        assert metrics["scenario"] == "golden_2jobs"
        spans = json.loads((tmp_path / "trace.json").read_text())
        assert len(spans) == 18

    def test_all_formats(self, tmp_path):
        code = run("simulate", "--config", GOLDEN, "--out", str(tmp_path),
                   "--format", "json", "--format", "csv", "--format", "table",
                   "--format", "chrome-trace")
        assert code == 0
        for name in ("metrics.json", "metrics.csv", "metrics.txt",
                     "trace.json", "trace_chrome.json"):
            assert (tmp_path / name).exists(), name

    def test_repeated_calls_do_not_share_format_lists(self, tmp_path):
        # main() parses with one parser per process; each parse starts a new
        # --format list.
        runs = {"a": ["csv", "chrome-trace"], "b": ["table"], "c": []}
        for name, formats in runs.items():
            flags = [arg for fmt in formats for arg in ("--format", fmt)]
            assert run("simulate", "--config", GOLDEN, "--out", str(tmp_path / name), *flags) == 0
        written = {name: sorted(p.name for p in (tmp_path / name).iterdir()) for name in runs}
        assert written == {"a": ["metrics.csv", "trace.json", "trace_chrome.json"],
                           "b": ["metrics.txt", "trace.json"],
                           "c": ["metrics.json", "trace.json"]}

    def test_chrome_trace_contract(self, tmp_path):
        run("simulate", "--config", GOLDEN, "--out", str(tmp_path),
            "--format", "chrome-trace")
        doc = json.loads((tmp_path / "trace_chrome.json").read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)

    def test_repeated_runs_byte_identical(self, tmp_path):
        for d in ("one", "two"):
            run("simulate", "--config", GOLDEN, "--out", str(tmp_path / d),
                "--format", "json", "--format", "csv", "--format", "chrome-trace")
        for name in ("metrics.json", "metrics.csv", "trace.json", "trace_chrome.json"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())

    def test_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        doc = json.loads(Path(GOLDEN).read_text(encoding="utf-8"))
        doc["jobs"][0]["job_id"] = "j\u00e9"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(SCENARIO_DIR.parent / "src"),
               "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "colosim.cli", "simulate", "--config", str(config),
             "--out", str(tmp_path / "out"), "--format", "table"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "j\u00e9" in (tmp_path / "out" / "metrics.txt").read_bytes().decode("utf-8")

    def test_write_keeps_a_reports_utf8_bytes(self, tmp_path):
        # 1-, 2-, 3- and 4-byte characters, 3.2 MB in all
        text = "a\u00e9\u30b8\U0001f680 tail\n" * 200_000
        path = tmp_path / "sub" / "doc.txt"
        _write([path], [text])
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("extra", [0, 1])
    def test_trace_files_at_a_chunk_boundary(self, tmp_path, extra):
        # 2 * _WRITE_ROWS rows fill two chunks exactly; one more row starts a third
        n = engine._WRITE_ROWS
        doc = json.loads(Path(GOLDEN).read_text())
        for job, iterations in zip(doc["jobs"], (n, n + extra)):
            job["iterations"] = iterations
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = run("simulate", "--config", str(config), "--out", str(tmp_path / "out"),
                   "--format", "chrome-trace")
        assert code == 0
        trace = simulate(load_config(str(config)).plan())
        assert len(trace.rows) == 2 * n + extra
        for name, serialize, reference in (
                ("trace.json", trace_to_json, trace_to_json_reference),
                ("trace_chrome.json", trace_to_chrome_json, trace_to_chrome_json_reference)):
            data = (tmp_path / "out" / name).read_bytes()
            assert data == serialize(trace).encode("utf-8"), name
            assert data == reference(trace).encode("utf-8"), name

    def test_large_trace_files_equal_the_serializers(self, tmp_path):
        config = str(SCENARIO_DIR / "speedup_band.json")
        code = run("simulate", "--config", config, "--out", str(tmp_path),
                   "--iters", "3000", "--format", "chrome-trace")
        assert code == 0
        trace = simulate(load_config(config).plan(3000))
        assert len(trace.rows) > engine._WRITE_ROWS
        for name, serialize in (("trace.json", trace_to_json),
                                ("trace_chrome.json", trace_to_chrome_json)):
            data = (tmp_path / name).read_bytes()
            assert data == serialize(trace).encode("utf-8"), name

    def test_large_chrome_trace_with_sub_microsecond_times(self, tmp_path):
        # syncs of 15000.12 and 11244.84 us outlast the other job's compute,
        # so starts and sync starts carry fractional microseconds in ts
        doc = json.loads((SCENARIO_DIR / "speedup_band.json").read_text())
        for job, forward_ms, grad_mb in zip(doc["jobs"], (3, 2), (124.751, 93.457)):
            job.update(forward_ms=forward_ms, backward_ms=7, grad_mb=grad_mb)
        config = tmp_path / "fractional.json"
        config.write_text(json.dumps(doc))
        code = run("simulate", "--config", str(config), "--out", str(tmp_path / "out"),
                   "--format", "chrome-trace")
        assert code == 0
        trace = simulate(load_config(str(config)).plan())
        assert {row[2] % 1000 for row in trace.rows} - {0}
        assert len(trace.rows) > engine._WRITE_ROWS
        data = (tmp_path / "out" / "trace_chrome.json").read_bytes()
        assert data == trace_to_chrome_json_reference(trace).encode("utf-8")

    def test_simulate_builds_no_rows(self, tmp_path, expansions):
        # the trace files and the span count are read from the trace's blocks
        config = str(SCENARIO_DIR / "speedup_band.json")
        argv = [arg for fmt in ("json", "csv", "table", "chrome-trace") for arg in ("--format", fmt)]
        assert run("simulate", "--config", config, "--out", str(tmp_path), *argv) == 0
        assert expansions == []
        trace = simulate(load_config(config).plan())
        assert any(repeats for _, _, repeats in trace.blocks)
        assert (tmp_path / "trace.json").read_bytes() == trace_to_json(trace).encode("utf-8")

    def test_each_file_is_written_once(self, tmp_path, monkeypatch):
        opened = []
        path_open = Path.open

        def recording(path, mode="r", *args, **kwargs):
            if "w" in mode:
                opened.append(path.relative_to(tmp_path).as_posix())
            return path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording)
        assert run("simulate", "--config", GOLDEN, "--out", str(tmp_path / "default")) == 0
        assert sorted(opened) == ["default/metrics.json", "default/trace.json"]
        opened.clear()
        assert run("simulate", "--config", GOLDEN, "--out", str(tmp_path / "chrome"),
                   "--format", "chrome-trace", "--format", "chrome-trace") == 0
        assert sorted(opened) == ["chrome/trace.json", "chrome/trace_chrome.json"]

    def test_iters_override(self, tmp_path):
        run("simulate", "--config", GOLDEN, "--out", str(tmp_path), "--iters", "5")
        per_job = json.loads((tmp_path / "metrics.json").read_text())["per_job"]
        assert {j: v["iterations"] for j, v in per_job.items()} == {"j1": 5, "j2": 5}

    def test_run_size_limit_is_usage_error(self, tmp_path, capsys):
        code = run("simulate", "--config", GOLDEN, "--out", str(tmp_path),
                   "--iters", "1000000000000")
        assert code == 1
        assert "iterations" in capsys.readouterr().err
        assert not (tmp_path / "trace.json").exists()

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run("simulate", "--config", GOLDEN, "--out", str(blocker / "out"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")

    def test_makespan_past_2_63_is_usage_error(self, tmp_path, capsys):
        code = run("simulate", "--config", huge_config(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "below 2^63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        code = run("simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_curve_shape_and_peak(self, tmp_path):
        code = run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--ratio-min", "0.1",
                   "--ratio-max", "2.0", "--steps", "20", "--iters", "200")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "rho,speedup"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 20
        peak_rho, _ = max(rows, key=lambda r: r[1])
        assert peak_rho == 1.0

    def test_matches_closed_form_at_long_horizon(self, tmp_path):
        run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
            "--out", str(tmp_path), "--ratio-min", "0.2", "--ratio-max", "1.0",
            "--steps", "3", "--iters", "1000")
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        for line in lines:
            rho, speedup = map(float, line.split(","))
            closed = (1 + rho) / max(1.0, rho)
            assert abs(speedup - closed) / closed < 0.01
        assert abs([float(l.split(",")[1]) for l in lines][0] - 1.2) < 0.012

    def test_single_step_is_usage_error(self, tmp_path, capsys):
        code = run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--steps", "1")
        assert code == 1
        assert "--steps" in capsys.readouterr().err

    def test_steps_past_limit_is_usage_error(self, tmp_path, capsys):
        code = run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--steps", str(MAX_SWEEP_STEPS + 1))
        assert code == 1
        assert "--steps" in capsys.readouterr().err

    def test_ratio_range_validated(self, tmp_path):
        assert run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--ratio-min", "0",
                   "--ratio-max", "2") == 1
        assert run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--ratio-min", "0.5",
                   "--ratio-max", "5") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--ratio-min", "--ratio-max"])
    def test_non_finite_ratio_is_usage_error(self, tmp_path, capsys, flag, value):
        code = run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), f"{flag}={value}")
        assert code == 1
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    def test_heterogeneous_base_rejected(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "sweep_base.json").read_text())
        doc["jobs"][0]["forward_ms"] = 99
        bad = tmp_path / "hetero.json"
        bad.write_text(json.dumps(doc))
        assert run("sweep", "--config", str(bad), "--out", str(tmp_path)) == 1
        assert "homogeneous" in capsys.readouterr().err

    @pytest.mark.parametrize("cluster, message", [
        ({"workers": 1}, "needs workers >= 2"),
        ({"latency_us": 10_000}, "unreachable"),
    ])
    def test_unscalable_cluster_is_usage_error(self, tmp_path, capsys, cluster, message):
        doc = json.loads((SCENARIO_DIR / "sweep_base.json").read_text())
        doc["cluster"].update(cluster)
        bad = tmp_path / "cluster.json"
        bad.write_text(json.dumps(doc))
        assert run("sweep", "--config", str(bad), "--out", str(tmp_path)) == 1
        assert message in capsys.readouterr().err

    def test_makespan_past_2_63_is_usage_error(self, tmp_path, capsys):
        code = run("sweep", "--config", huge_config(tmp_path), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "below 2^63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scaled_plan_past_2_63_is_usage_error(self, tmp_path, capsys):
        # 2 x 4e18 ns fits, but a sync of 0.2 x compute takes the sum past 2^63
        config = huge_config(tmp_path)
        doc = json.loads(Path(config).read_text())
        doc["jobs"][0].update(forward_ms=4000000000000, iterations=2)
        Path(config).write_text(json.dumps(doc))
        assert run("simulate", "--config", config, "--out", str(tmp_path / "sim")) == 0
        code = run("sweep", "--config", config, "--out", str(tmp_path / "out"),
                   "--ratio-min", "0.1", "--ratio-max", "0.2", "--steps", "2")
        assert code == 1
        assert "below 2^63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_each_point_runs_one_schedule(self, tmp_path, run_calls):
        # the sequential makespan is the closed form, not a second run
        assert run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--steps", "7", "--iters", "20") == 0
        assert run_calls == [Policy.CROSSOVER] * 7

    @pytest.mark.parametrize("steps", [7, MAX_SWEEP_STEPS])
    def test_one_sweep_builds_one_plan(self, tmp_path, monkeypatch, steps):
        # the scenario's plan; each point is priced from its jobs and the
        # cluster's cost terms, which the sweep computes once, without a plan
        built, priced = [], []
        post_init = SchedulePlan.__post_init__

        def counting(plan):
            built.append(plan)
            post_init(plan)

        def pricing(cluster):
            priced.append(cluster)
            return cost_terms(cluster)

        monkeypatch.setattr(SchedulePlan, "__post_init__", counting)
        for module in (cli, comm, scheduler):
            monkeypatch.setattr(module, "cost_terms", pricing)
        assert run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                   "--out", str(tmp_path), "--steps", str(steps), "--iters", "20") == 0
        assert len(built) == 1
        assert len(priced) == 2  # the plan's sync times, then the sweep's
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + steps

    def test_deterministic_output(self, tmp_path):
        for d in ("a", "b"):
            run("sweep", "--config", str(SCENARIO_DIR / "sweep_base.json"),
                "--out", str(tmp_path / d), "--steps", "4", "--iters", "50")
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())


@settings(max_examples=500)
@given(st.sampled_from(Architecture), st.integers(min_value=2, max_value=64),
       st.integers(min_value=1, max_value=10**13), st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=1, max_value=10**12),
       st.fractions(min_value=0, max_value=4, max_denominator=10**6).filter(bool))
def test_sweep_payload_inverts_comm_time(architecture, workers, bandwidth, latency, comp, rho):
    cluster = ClusterSpec(workers=workers, bandwidth_bytes_per_sec=bandwidth,
                          latency_per_message=latency, architecture=architecture)
    target = rho * comp
    beta = Fraction(2 * 10**9, bandwidth)  # ns per byte
    if architecture is Architecture.RING_ALLREDUCE:
        beta *= Fraction(workers - 1, workers)
    try:
        payload = _payload(cost_terms(cluster), comp, rho.numerator, rho.denominator)
    except ConfigError:
        assert target < comm_time(0, cluster)
        return
    assert payload >= 0
    assert abs(comm_time(payload, cluster) - target) <= beta / 2 + 1


@settings(max_examples=300)
@given(st.sampled_from(Architecture), st.integers(min_value=2, max_value=64),
       st.integers(min_value=1, max_value=10**13), st.integers(min_value=0, max_value=10**4),
       st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=10**15),
       st.integers(min_value=-1, max_value=1))
def test_sweep_payload_rounds_half_to_even(architecture, workers, bandwidth, latency, comp,
                                           whole, nudge):
    # p / q is set so that the exact payload is whole + 1/2 (+ nudge / (2 * num))
    cluster = ClusterSpec(workers=workers, bandwidth_bytes_per_sec=bandwidth,
                          latency_per_message=latency, architecture=architecture)
    alpha, num, den = cost_terms(cluster)
    p, q = (2 * whole + 1) * num + 2 * alpha * den + nudge, 2 * den * comp
    exact = Fraction((p * comp - alpha * q) * den, q * num)
    assert nudge or exact.denominator == 2
    assert _payload((alpha, num, den), comp, p, q) == round(exact)


@st.composite
def sweep_cases(draw):
    """A homogeneous scenario document and one sweep's ratio strings and steps.

    Budgets differ per job, and so does the forward/backward split of the
    shared compute time.  A compute unit of 10^15 ns lets a scaled plan pass
    2^63; a latency of up to 10 ms makes low ratios of a small compute
    unreachable.  Ratios are decimals of up to 20 digits in (0, 4].
    """
    unit = draw(st.sampled_from([1, 10**15]))
    comp = draw(st.integers(1, 10**7 if unit == 1 else 300))
    jobs = []
    for i in range(draw(st.integers(1, 8))):
        forward = draw(st.integers(0, comp))
        jobs.append({"job_id": f"j{i}", "forward_ms": forward * unit / 10**6,
                     "backward_ms": (comp - forward) * unit / 10**6, "grad_mb": 1,
                     "iterations": draw(st.integers(1, 20))})
    cluster = {"workers": draw(st.integers(1, 8)),
               "bandwidth_gbps": draw(st.integers(1, 10**13)) * 8 / 10**9,
               "latency_us": draw(st.one_of(st.just(0), st.integers(1, 10**7))) / 10**3,
               "architecture": draw(st.sampled_from(Architecture)).value}
    ratios = []
    for _ in range(2):
        digits = draw(st.integers(0, 20))
        n = draw(st.integers(1, 4 * 10**digits))
        ratios.append((Fraction(n, 10**digits), f"{n // 10**digits}.{n % 10**digits:0{digits}d}"))
    (_, lo), (_, hi) = sorted(ratios)
    doc = {"name": "drawn", "policy": "crossover", "cluster": cluster, "jobs": jobs}
    return doc, lo, hi, draw(st.integers(2, 10))


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_sweep_matches_the_reference(case):
    doc, lo, hi, steps = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "drawn.json"
        config.write_text(json.dumps(doc))
        try:
            expected = sweep_reference(load_config(config).plan(), Fraction(str(float(lo))),
                                       Fraction(str(float(hi))), steps)
        except ConfigError as exc:
            expected = f"error: {exc}\n"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(config), "--out", tmp,
                         "--ratio-min", lo, "--ratio-max", hi, "--steps", str(steps)])
        if code:
            assert (code, err.getvalue()) == (1, expected)
        else:
            assert (Path(tmp) / "sweep.csv").read_text() == expected


class TestEquivalence:
    def test_clean_run_prints_zero(self, capsys):
        assert run("equivalence", "--iters", "5") == 0
        out = capsys.readouterr().out
        assert "max absolute trajectory deviation: 0" in out
        assert "PASS" in out

    def test_bad_iters(self):
        assert run("equivalence", "--iters", "0") == 1

    def test_iters_past_limit_is_usage_error(self, capsys):
        assert run("equivalence", "--iters", str(MAX_EQUIV_ITERS + 1)) == 1
        captured = capsys.readouterr()
        assert "--iters" in captured.err
        assert "PASS" not in captured.out

    def test_negative_seed_is_usage_error(self, capsys):
        assert run("equivalence", "--iters", "2", "--seed", "-1") == 1
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert "PASS" not in captured.out


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_zero_iters_is_usage_error(command, tmp_path, capsys):
    config = str(SCENARIO_DIR / "sweep_base.json")
    assert run(command, "--config", config, "--out", str(tmp_path), "--iters", "0") == 1
    assert capsys.readouterr().err == "error: iterations (--iters) must be >= 1, got 0\n"
    assert not any(tmp_path.iterdir())


def test_iters_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    # argparse takes 4,300 digits; two jobs' total has 4,301, which str() refuses
    assert run("simulate", "--config", GOLDEN, "--out", str(tmp_path),
               "--iters", "9" * 4300) == 1
    assert capsys.readouterr().err == (
        "error: iterations: 2^14285 or more job-iterations in all exceed the limit of "
        f"{MAX_JOB_ITERATIONS} (lower iterations or --iters)\n")
    assert not any(tmp_path.iterdir())


# Runs every subcommand but ``equivalence`` in one fresh interpreter, then
# prints which of the modules only the SGD oracle may need got imported.
_COLD_RUN = """
import sys
from pathlib import Path
import colosim
from colosim.cli import main
out, bundled = Path(sys.argv[1]), Path(sys.argv[2])
scenarios = sorted(bundled.glob("*.json"))
formats = ["--format", "json", "--format", "csv", "--format", "table",
           "--format", "chrome-trace"]
codes = [main(["validate-config", "--config", str(s)]) for s in scenarios]
codes += [main(["simulate", "--config", str(s), "--out", str(out / s.stem), *formats])
          for s in scenarios]
codes.append(main(["sweep", "--config", str(bundled / "sweep_base.json"),
                   "--out", str(out / "sweep"), "--steps", "3"]))
print(codes, sorted({"numpy", "statistics"} & set(sys.modules)))
"""


def _cold(*argv):
    """``python *argv`` in a fresh interpreter that imports colosim from src/."""
    env = {**os.environ, "PYTHONPATH": str(SCENARIO_DIR.parent / "src")}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


class TestColdImports:
    """numpy is the SGD oracle's alone; a fresh process shows what a call loads.

    The test session itself has numpy loaded already, so only a new
    interpreter can tell a module-level import from a per-call one.
    """

    def test_other_subcommands_import_neither_numpy_nor_statistics(self, tmp_path):
        proc = _cold("-c", _COLD_RUN, str(tmp_path), str(SCENARIO_DIR))
        assert proc.returncode == 0, proc.stderr
        n = len(list(SCENARIO_DIR.glob("*.json")))
        assert proc.stdout.splitlines()[-1] == f"{[0] * (2 * n + 1)} []"
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        for s in SCENARIO_DIR.glob("*.json"):
            assert (tmp_path / s.stem / "trace_chrome.json").exists(), s.stem

    def test_parser_is_built_on_the_first_call_and_kept(self):
        # Live parsers (the top level and its four subcommands) after the
        # import and after each of two calls.
        code = ("import argparse, gc\n"
                "import colosim.cli as cli\n"
                "def parsers():\n"
                "    gc.collect()\n"
                "    return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())\n"
                "counts = [parsers()]\n"
                "for _ in range(2):\n"
                "    cli.main(['validate-config', '--config', " + repr(GOLDEN) + "])\n"
                "    counts.append(parsers())\n"
                "print(counts)\n")
        proc = _cold("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 5, 5]"

    def test_equivalence_imports_its_oracle_per_call(self):
        proc = _cold("-m", "colosim.cli", "equivalence", "--iters", "2")
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout


class TestUsageErrors:
    """Argument errors argparse catches exit 1, like every other usage error."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", GOLDEN, "--iters", "abc"],
        ["simulate", "--config", GOLDEN, "--format", "yaml"],
        ["simulate"],
        ["bogus"],
    ], ids=["bad_int", "bad_choice", "missing_config", "unknown_subcommand"])
    def test_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--help")
        assert info.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestValidateConfig:
    def test_ok(self, capsys):
        assert run("validate-config", "--config", GOLDEN) == 0
        assert capsys.readouterr().out == ("OK: golden_2jobs: 2 job(s), policy=crossover, "
                                           "architecture=parameter_server\n")

    def test_makespan_past_2_63_is_usage_error(self, tmp_path, capsys):
        assert run("validate-config", "--config", huge_config(tmp_path)) == 1
        captured = capsys.readouterr()
        assert "below 2^63" in captured.err
        assert "OK" not in captured.out

    def test_run_size_limit_is_usage_error(self, tmp_path, capsys):
        # 600,000 iterations of each bundled profile: 1.2M job-iterations
        doc = json.loads(Path(GOLDEN).read_text())
        doc["jobs"] = [{"job_id": "a", "profile": "resnet50", "iterations": 600_000},
                       {"job_id": "b", "profile": "vgg16", "iterations": 600_000}]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert run("validate-config", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert f"exceed the limit of {MAX_JOB_ITERATIONS}" in captured.err
        assert "OK" not in captured.out

    def test_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "policy": "warp",
                                   "cluster": {}, "jobs": []}))
        assert run("validate-config", "--config", str(bad)) == 1
        assert "error:" in capsys.readouterr().err
