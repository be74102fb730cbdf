import csv
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from colosim.comm import Architecture, ClusterSpec
from colosim.engine import Trace
from colosim.errors import ComparisonError, InvalidTraceError
from colosim.metrics import (
    METRICS_CSV_HEADER,
    compare,
    measure,
    report,
)
from colosim.scenario import load_config
from colosim.scheduler import Policy, SchedulePlan, simulate
from colosim.workload import JobProfile

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

CLUSTER = ClusterSpec(workers=2, bandwidth_bytes_per_sec=2_000_000_000,
                      architecture=Architecture.PARAMETER_SERVER)


def plan(policy=Policy.CROSSOVER, comp=2, comm=1, iterations=3, n_jobs=2):
    jobs = tuple(
        JobProfile(f"j{i + 1}", comp // 2, comp - comp // 2, comm, iterations)
        for i in range(n_jobs)
    )
    return SchedulePlan(policy, jobs, CLUSTER)


def golden_pair():
    p_x = plan(Policy.CROSSOVER)
    p_s = plan(Policy.SEQUENTIAL)
    return (measure(simulate(p_x), p_x, "golden"),
            measure(simulate(p_s), p_s, "golden"))


class TestMeasure:
    def test_golden_utilizations(self):
        mx, _ = golden_pair()
        assert mx.makespan == 13
        assert mx.gpu_utilization == Fraction(12, 13)
        assert mx.nic_utilization == Fraction(6, 13)
        assert mx.aggregate_throughput == Fraction(6 * 10**9, 13)

    def test_golden_periods(self):
        mx, _ = golden_pair()
        assert mx.per_job_iteration_period == {"j1": 4, "j2": 4}
        assert mx.per_job_iterations == {"j1": 3, "j2": 3}

    def test_zero_comm_means_idle_nic(self):
        p = plan(comm=0)
        m = measure(simulate(p), p)
        assert m.nic_utilization == 0

    def test_hidden_sync_period_is_rotation_compute(self):
        # ratio 0.5 at a long horizon: period == N * comp exactly
        p = plan(comp=1_000, comm=500, iterations=1000)
        m = measure(simulate(p), p)
        assert m.per_job_iteration_period == {"j1": 2_000, "j2": 2_000}

    def test_gpu_utilization_approaches_one(self):
        p = plan(comp=1_000, comm=900, iterations=1000)
        m = measure(simulate(p), p)
        assert m.gpu_utilization >= Fraction(99, 100)

    def test_single_iteration_has_no_period(self):
        p = plan(iterations=1)
        m = measure(simulate(p), p)
        assert m.per_job_iteration_period == {"j1": None, "j2": None}

    def test_invalid_trace_rejected(self):
        # sync starts before the compute ends
        bad = Trace((("j1", 1, 0, 1, 2, 1, 2),))
        with pytest.raises(InvalidTraceError) as err:
            measure(bad, plan())
        assert err.value.violations == ["row 0 (j1 iteration 1): sync_start 1, expected 2"]

    def test_job_set_differing_from_plan_rejected(self):
        with pytest.raises(InvalidTraceError) as err:
            measure(simulate(plan(n_jobs=3)), plan(n_jobs=2))
        assert err.value.violations == ["row 2: j3 iteration 1, expected j1 iteration 2"]
        with pytest.raises(InvalidTraceError) as err:
            measure(simulate(plan(n_jobs=2)), plan(n_jobs=3))
        assert err.value.violations == ["row 2: j1 iteration 2, expected j3 iteration 1"]

    def test_sync_count_differing_from_budget_rejected(self):
        with pytest.raises(InvalidTraceError) as err:
            measure(simulate(plan(iterations=3)), plan(iterations=4))
        assert err.value.violations == ["row 6: missing, expected j1 iteration 4"]

    def test_stretched_last_sync_rejected(self):
        golden = load_config(SCENARIO_DIR / "golden_2jobs.json").plan()
        trace = simulate(golden)
        last = trace.rows[-1]
        stretched = Trace(trace.rows[:-1] + (last[:6] + (last[6] + 1_000,),))
        with pytest.raises(InvalidTraceError) as err:
            measure(stretched, golden)
        assert err.value.violations == ["row 5 (j2 iteration 3): sync_end 1013, expected 13"]

    def test_other_policys_trace_rejected(self):
        golden = load_config(SCENARIO_DIR / "golden_2jobs.json").plan()
        sequential = simulate(dataclasses.replace(golden, policy=Policy.SEQUENTIAL))
        with pytest.raises(InvalidTraceError) as err:
            measure(sequential, golden)
        assert err.value.violations == ["row 1 (j2 iteration 1): start 3, expected 2"]

    def test_pure_function_of_inputs(self):
        p = plan()
        trace = simulate(p)
        assert measure(trace, p, "x") == measure(trace, p, "x")


def golden_2jobs():
    return load_config(SCENARIO_DIR / "golden_2jobs.json").plan()


def unequal_budgets():
    jobs = (JobProfile("a", 1, 2, 3, 2), JobProfile("b", 2, 1, 1, 5),
            JobProfile("c", 1, 1, 4, 3))
    return SchedulePlan(Policy.CROSSOVER, jobs, CLUSTER)


@pytest.mark.parametrize("make_plan", [golden_2jobs, unequal_budgets])
class TestDispatchLoops:
    def test_simulated_trace_is_measured_without_a_second_run(self, run_calls, make_plan):
        p = make_plan()
        measure(simulate(p), p)
        assert len(run_calls) == 1

    def test_plain_trace_is_checked_against_a_fresh_run(self, run_calls, make_plan):
        p = make_plan()
        measure(Trace(simulate(p).rows), p)
        assert len(run_calls) == 2


class TestCompare:
    def test_golden_speedup(self):
        mx, ms = golden_pair()
        assert compare(mx, ms).speedup_vs_baseline == Fraction(18, 13)

    def test_self_comparison_is_exactly_one(self):
        mx, _ = golden_pair()
        assert compare(mx, mx).speedup_vs_baseline == 1

    def test_mismatched_job_sets(self):
        mx, _ = golden_pair()
        p3 = plan(n_jobs=3)
        m3 = measure(simulate(p3), p3, "golden")
        with pytest.raises(ComparisonError):
            compare(mx, m3)

    def test_empty_crossover_rejected(self):
        mx, ms = golden_pair()
        with pytest.raises(ComparisonError, match="empty"):
            compare(dataclasses.replace(mx, makespan=0), ms)

    def test_amortized_band_speedup(self):
        # ratio 0.15 at T=1000 lands within the 10--20% window
        p_x = plan(comp=1_000_000, comm=150_000, iterations=1000)
        p_s = plan(Policy.SEQUENTIAL, comp=1_000_000, comm=150_000, iterations=1000)
        mx = measure(simulate(p_x), p_x)
        ms = measure(simulate(p_s), p_s)
        speedup = compare(mx, ms).speedup_vs_baseline
        assert Fraction(113, 100) <= speedup <= Fraction(116, 100)


class TestReport:
    def test_json_round_trips_exactly(self):
        # every ratio is written as its exact fraction string
        mx, ms = golden_pair()
        for m in (compare(mx, ms), mx):
            doc = json.loads(report(m, "json"))
            assert Fraction(doc["gpu_utilization"]) == m.gpu_utilization
            assert Fraction(doc["nic_utilization"]) == m.nic_utilization
            assert Fraction(doc["aggregate_throughput_per_s"]) == m.aggregate_throughput
            speedup = doc["speedup_vs_baseline"]
            assert (None if speedup is None else Fraction(speedup)) == m.speedup_vs_baseline

    def test_csv_shape(self):
        mx, ms = golden_pair()
        lines = report(compare(mx, ms), "csv").strip().split("\n")
        assert lines[0] == METRICS_CSV_HEADER
        assert len(lines) == 1 + 2 + 1  # header + jobs + aggregate
        assert lines[1].startswith("golden,crossover,j1,3,4,13,")
        assert lines[3].startswith("golden,crossover,aggregate,6,,13,")
        assert lines[3].endswith("1.3846153846153846")

    def test_csv_quotes_delimiters_in_names(self):
        ids = ("j,1", 'j"2')
        p = SchedulePlan(Policy.CROSSOVER,
                         tuple(JobProfile(i, 1, 1, 1, 3) for i in ids), CLUSTER)
        text = report(measure(simulate(p), p, scenario="a,b"), "csv")
        rows = list(csv.reader(text.splitlines()))
        assert [len(r) for r in rows] == [9] * 4
        assert [r[2] for r in rows[1:]] == [*ids, "aggregate"]
        assert {r[0] for r in rows[1:]} == {"a,b"}

    def test_table_width_budget(self):
        p = plan(n_jobs=8)
        m = measure(simulate(p), p, "wide")
        text = report(m, "table")
        assert text.endswith("\n")
        assert all(len(line) <= 120 for line in text.split("\n"))
        assert len(text.strip().split("\n")) == 3 + 8

    def test_unknown_format(self):
        mx, _ = golden_pair()
        with pytest.raises(ValueError, match="unknown report format"):
            report(mx, "yaml")

    def test_reports_are_deterministic(self):
        mx, _ = golden_pair()
        for fmt in ("json", "csv", "table"):
            assert report(mx, fmt) == report(mx, fmt)
