import csv
import dataclasses
import json
import statistics
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from colosim.comm import Architecture, ClusterSpec
from colosim.engine import Trace
from colosim.errors import ComparisonError, ConfigError, InvalidTraceError
from colosim.metrics import (
    METRICS_CSV_HEADER,
    Metrics,
    _steady_period,
    compare,
    measure,
    report,
)
from colosim.scenario import load_config
from colosim.scheduler import Policy, SchedulePlan, simulate, validate_trace
from colosim.workload import JobProfile
from oracles import metrics_json_reference, steady_period_reference

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

    @pytest.mark.parametrize("malform, message", [
        (lambda rows: (rows[0][:3], *rows[1:]),
         "row 0: a tuple of 3 fields, expected a tuple of 7 fields"),
        (lambda rows: (rows[0] + (0,), *rows[1:]),
         "row 0: a tuple of 8 fields, expected a tuple of 7 fields"),
        (list, "rows: a list, expected a tuple of rows"),
        (lambda rows: (list(rows[0]), *rows[1:]), "row 0: a list, expected a tuple of 7 fields"),
    ], ids=["row_of_3", "row_of_8", "rows_list", "row_list"])
    def test_malformed_rows_rejected(self, malform, message):
        golden = golden_2jobs()
        trace = Trace(malform(simulate(golden).rows))
        assert validate_trace(trace, golden) == [message]
        with pytest.raises(InvalidTraceError) as err:
            measure(trace, golden)
        assert err.value.violations == [message]

    @pytest.mark.parametrize("iteration, message", [
        (4, "row 6: j1 iteration 4 after the plan's last row"),
        ("4", "row 6: j1 iteration '4' after the plan's last row"),
    ], ids=["int", "str"])
    def test_row_past_the_end_rejected(self, iteration, message):
        golden = golden_2jobs()
        trace = Trace(simulate(golden).rows + (("j1", iteration, 13, 14, 15, 15, 16),))
        assert validate_trace(trace, golden) == [message]
        with pytest.raises(InvalidTraceError) as err:
            measure(trace, golden)
        assert err.value.violations == [message]

    # row 0 of golden_2jobs is ("j1", 1, 0, 1, 2, 2, 3); each edit but the
    # strings compares equal to it, and True would reach trace.json as "True"
    @pytest.mark.parametrize("edit, message", [
        ({1: True, 2: 0.0}, "iteration True, a bool, expected the int 1"),
        ({2: "0"}, "start '0', a str, expected the int 0"),
        ({3: None}, "backward_start None, a NoneType, expected the int 1"),
        ({1: "1"}, "iteration '1', a str, expected the int 1"),
        ({2: 0.0}, "start 0.0, a float, expected the int 0"),  # README's example
    ], ids=["bool_and_float", "str_start", "none_backward_start", "str_iteration",
            "float_start"])
    def test_mistyped_row_rejected(self, edit, message):
        golden = golden_2jobs()
        rows = simulate(golden).rows
        row = list(rows[0])
        for field, value in edit.items():
            row[field] = value
        with pytest.raises(InvalidTraceError) as err:
            measure(Trace((tuple(row), *rows[1:])), golden)
        assert err.value.violations == [f"row 0 (j1 iteration 1): {message}"]

    def test_pure_function_of_inputs(self):
        p = plan()
        trace = simulate(p)
        assert measure(trace, p, "x") == measure(trace, p, "x")


# Runs of equal gaps; counts up to 40 make the quarter cuts k//4 and
# k - k//4 fall inside a run as often as between two.
_runs = st.lists(st.tuples(st.integers(0, 10**12), st.integers(1, 40)), max_size=30)


@given(_runs)
@example([(5, 1), (2, 1)])  # two gaps: an even window, whose lower middle is taken
@example([(5, 1), (2, 1), (13, 1)])  # three gaps: an odd window
@example([(7, 9)])  # one run: the window lies inside it
@example([(3, 2), (9, 4), (1, 2)])  # the run of 9s straddles both cuts
def test_steady_period_is_median_low_of_the_middle_gaps(runs):
    run_gaps, counts = [gap for gap, _ in runs], [count for _, count in runs]
    gaps = [gap for gap, count in runs for _ in range(count)]
    if not gaps:
        assert _steady_period(run_gaps, counts) is None
        return
    k = len(gaps)
    assert _steady_period(run_gaps, counts) == statistics.median_low(gaps[k // 4: k - k // 4])


# 1-6 jobs with durations of 1 ns to 1 ms and unequal budgets, so that a
# plan passes through several regimes and most of them copy rounds.
_timed_job = st.tuples(*[st.integers(1, 10**6)] * 3, st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(st.lists(_timed_job, min_size=1, max_size=6), st.sampled_from(Policy))
def test_periods_from_blocks_equal_the_row_walk(specs, policy):
    p = SchedulePlan(policy, tuple(JobProfile(f"j{i}", *spec)
                                   for i, spec in enumerate(specs)), CLUSTER)
    trace = simulate(p)
    m = measure(trace, p)
    assert m.per_job_iteration_period == steady_period_reference(trace.rows)
    assert measure(Trace(trace.rows), p) == m


@settings(max_examples=200, deadline=None)
@given(st.lists(_timed_job, min_size=1, max_size=6), st.sampled_from(Policy))
def test_each_block_is_one_round(specs, policy):
    # a block holds one row for each job with iterations left, in plan order,
    # all at the iteration that follows the previous block and its copies
    p = SchedulePlan(policy, tuple(JobProfile(f"j{i}", *spec)
                                   for i, spec in enumerate(specs)), CLUSTER)
    t = 1
    for rows, _, repeats in simulate(p).blocks:
        assert [row[:2] for row in rows] == [(j.job_id, t) for j in p.jobs if j.iterations >= t]
        t += 1 + repeats
    assert t == 1 + max(j.iterations for j in p.jobs)


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
        trace = simulate(p)
        run_calls.clear()
        measure(trace, p)
        assert run_calls == []

    def test_plain_trace_is_checked_against_a_fresh_run(self, run_calls, make_plan):
        p = make_plan()
        simulated = simulate(p)
        plain = Trace(simulated.rows)
        run_calls.clear()
        m = measure(plain, p)
        assert len(run_calls) == 1
        assert measure(simulated, p) == m


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


# Ids and names that json.dumps escapes: quotes, backslashes, control and
# non-ASCII characters, astral ones (written as surrogate pairs) and lone
# surrogates, with any other character now and then.
_names = st.text(st.sampled_from('"\\/\t\n\x00\x1f\x7f a\xe9\u2028\u20ac\U0001f600\ud800\udfff')
                 | st.characters(exclude_categories=()), max_size=8)
_ratios = st.fractions(min_value=0, max_denominator=10**30)


@st.composite
def hand_built_metrics(draw):
    """A Metrics of any names and numbers: periods None or missing, any ``per_job``."""
    ids = draw(st.lists(_names, unique=True, max_size=4))
    return Metrics(
        scenario=draw(_names),
        policy=draw(st.sampled_from([p.value for p in Policy]) | _names),
        makespan=draw(st.integers(0, 2**63 - 1)),
        per_job_iteration_period={j: draw(st.none() | st.integers(0, 2**63 - 1))
                                  for j in ids if draw(st.booleans())},
        per_job_iterations={j: draw(st.integers(1, 10**6)) for j in ids},
        gpu_utilization=draw(_ratios),
        nic_utilization=draw(_ratios),
        aggregate_throughput=draw(_ratios),
        speedup_vs_baseline=draw(st.none() | _ratios),
    )


class TestReport:
    @settings(max_examples=300)
    @given(hand_built_metrics())
    @example(Metrics("", "crossover", 0, {}, {}, Fraction(0), Fraction(0), Fraction(0)))
    def test_json_is_the_reference_document(self, m):
        assert report(m, "json") == metrics_json_reference(m)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_timed_job, min_size=1, max_size=6), st.lists(_names, unique=True,
                                                                  min_size=6, max_size=6),
           _names, st.booleans())
    def test_json_of_measured_runs_is_the_reference_document(self, specs, ids, name, compared):
        plans = [SchedulePlan(policy, tuple(JobProfile(job_id, *spec)
                                            for job_id, spec in zip(ids, specs)), CLUSTER)
                 for policy in (Policy.CROSSOVER, Policy.SEQUENTIAL)]
        mx, ms = (measure(simulate(p), p, scenario=name) for p in plans)
        m = compare(mx, ms) if compared else mx
        assert report(m, "json") == metrics_json_reference(m)

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

    def test_table_reports_the_speedup(self):
        # only a compared Metrics carries a speedup, and the CLI never compares
        px = golden_2jobs()
        ps = dataclasses.replace(px, policy=Policy.SEQUENTIAL)
        mx, ms = measure(simulate(px), px), measure(simulate(ps), ps)
        assert report(mx, "table").split("\n")[1].endswith("throughput_per_s: 4.61538e+08")
        assert report(compare(mx, ms), "table").split("\n")[1].endswith("  speedup: 1.3846")

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

    def test_unknown_format_is_a_config_error(self):
        mx, _ = golden_pair()
        with pytest.raises(ConfigError, match=r"^unknown report format 'xml' \(expected json, "
                                              r"csv or table\)$"):
            report(mx, "xml")

    def test_reports_are_deterministic(self):
        mx, _ = golden_pair()
        for fmt in ("json", "csv", "table"):
            assert report(mx, fmt) == report(mx, fmt)
