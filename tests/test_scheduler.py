import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from colosim.comm import Architecture, ClusterSpec, comm_time
from colosim.engine import _JOB_ID_LIMIT, Phase, Trace
from colosim.errors import ConfigError, InvalidTraceError
from colosim.metrics import measure
from colosim import scheduler
from colosim.scheduler import (
    Policy,
    SchedulePlan,
    makespan,
    predicted_speedup,
    simulate,
    steady_state_period,
    validate_trace,
)
from colosim.workload import JobProfile

from oracles import (brute_crossover, brute_sequential, crossover_cycle, max_cycle_mean,
                     max_plus_state, spans_from_trace, steady_period_reference)

# Parameter-server at 16 Gbps (2e9 B/s) with zero latency prices a payload of
# S bytes at exactly S nanoseconds, so tests can dial sync durations directly.
CLUSTER = ClusterSpec(workers=2, bandwidth_bytes_per_sec=2_000_000_000,
                      latency_per_message=0,
                      architecture=Architecture.PARAMETER_SERVER)


def job(job_id, fwd, bwd, comm_ns, iterations):
    return JobProfile(job_id, fwd, bwd, comm_ns, iterations)


def plan(policy, specs, cluster=CLUSTER):
    return SchedulePlan(policy, tuple(job(*s) for s in specs), cluster)


def two_identical(comp=2, comm=1, iterations=3, policy=Policy.CROSSOVER):
    fwd, bwd = comp // 2, comp - comp // 2
    return plan(policy, [("j1", fwd, bwd, comm, iterations),
                         ("j2", fwd, bwd, comm, iterations)])


GOLDEN_CROSSOVER = [
    ("gpu0", "j1", "forward", 1, 0, 1), ("gpu0", "j1", "backward", 1, 1, 2),
    ("nic0", "j1", "sync", 1, 2, 3),
    ("gpu0", "j2", "forward", 1, 2, 3), ("gpu0", "j2", "backward", 1, 3, 4),
    ("nic0", "j2", "sync", 1, 4, 5),
    ("gpu0", "j1", "forward", 2, 4, 5), ("gpu0", "j1", "backward", 2, 5, 6),
    ("nic0", "j1", "sync", 2, 6, 7),
    ("gpu0", "j2", "forward", 2, 6, 7), ("gpu0", "j2", "backward", 2, 7, 8),
    ("nic0", "j2", "sync", 2, 8, 9),
    ("gpu0", "j1", "forward", 3, 8, 9), ("gpu0", "j1", "backward", 3, 9, 10),
    ("nic0", "j1", "sync", 3, 10, 11),
    ("gpu0", "j2", "forward", 3, 10, 11), ("gpu0", "j2", "backward", 3, 11, 12),
    ("nic0", "j2", "sync", 3, 12, 13),
]


class TestCrossover:
    def test_golden_trace(self):
        p = two_identical()
        trace = simulate(p)
        assert spans_from_trace(trace) == GOLDEN_CROSSOVER
        assert trace.makespan == 13
        assert validate_trace(trace, p) == []

    def test_single_job_still_respects_dependency(self):
        # without an overlap partner: T * (comp + comm) exactly
        trace = simulate(plan(Policy.CROSSOVER, [("solo", 1, 1, 1, 2)]))
        assert trace.makespan == 2 * (2 + 1)
        assert spans_from_trace(trace) == [
            ("gpu0", "solo", "forward", 1, 0, 1), ("gpu0", "solo", "backward", 1, 1, 2),
            ("nic0", "solo", "sync", 1, 2, 3),
            ("gpu0", "solo", "forward", 2, 3, 4), ("gpu0", "solo", "backward", 2, 4, 5),
            ("nic0", "solo", "sync", 2, 5, 6),
        ]

    def test_zero_comm_packs_computes_back_to_back(self):
        trace = simulate(two_identical(comp=2, comm=0))
        assert trace.makespan == 3 * 2 * 2  # T * N * comp

    def test_zero_comm_matches_sequential_trace(self):
        cross = simulate(two_identical(comm=0))
        seq = simulate(two_identical(comm=0, policy=Policy.SEQUENTIAL))
        assert spans_from_trace(cross) == spans_from_trace(seq)

    def test_simulate_dispatches_on_policy(self):
        assert simulate(two_identical()).makespan == 13
        assert simulate(two_identical(policy=Policy.SEQUENTIAL)).makespan == 18


class TestSequential:
    def test_golden_makespan(self):
        trace = simulate(two_identical(policy=Policy.SEQUENTIAL))
        assert trace.makespan == 18  # T * N * (comp + comm)
        specs = [("j1", 1, 1, 1, 3), ("j2", 1, 1, 1, 3)]
        assert spans_from_trace(trace) == brute_sequential(specs)[0]

    def test_single_job_single_iteration(self):
        trace = simulate(plan(Policy.SEQUENTIAL, [("solo", 2, 3, 4, 1)]))
        assert trace.makespan == 2 + 3 + 4

    def test_gpu_idles_during_sync(self):
        trace = simulate(two_identical(policy=Policy.SEQUENTIAL))
        computes = sorted((s.start, s.end) for s in trace.spans if s.phase is not Phase.SYNC)
        syncs = sorted((s.start, s.end) for s in trace.spans if s.phase is Phase.SYNC)
        for start, end in syncs:
            assert all(c_end <= start or c_start >= end for c_start, c_end in computes)


class TestSteadyStatePeriod:
    def test_crossover_compute_bound(self):
        assert steady_state_period(two_identical(comp=2, comm=1)) == 4

    def test_crossover_network_bound(self):
        assert steady_state_period(two_identical(comp=1, comm=2)) == 4

    def test_sequential_sums(self):
        assert steady_state_period(two_identical(comp=2, comm=1,
                                                 policy=Policy.SEQUENTIAL)) == 6

    def test_single_job_is_its_own_loop(self):
        for policy in Policy:
            p = plan(policy, [("solo", 1, 1, 1, 3)])
            starts = [row[2] for row in simulate(p).rows]
            assert starts == [0, 3, 6]
            assert steady_state_period(p) == 3
        assert predicted_speedup(p) == 1

    def test_matches_golden_compute_starts(self):
        trace = simulate(two_identical())
        starts = [s.start for s in trace.spans
                  if s.job_id == "j1" and s.phase is Phase.FORWARD]
        assert starts == [0, 4, 8]


class TestPredictedSpeedup:
    def test_hidden_regime_is_one_plus_ratio(self):
        # comm/comp = 0.15
        p = plan(Policy.CROSSOVER, [("a", 500_000, 500_000, 150_000, 3),
                                    ("b", 500_000, 500_000, 150_000, 3)])
        assert predicted_speedup(p) == Fraction(23, 20)

    def test_break_even_doubles(self):
        assert predicted_speedup(two_identical(comp=2, comm=2)) == 2

    def test_network_bound_decays(self):
        assert predicted_speedup(two_identical(comp=1, comm=2)) == Fraction(3, 2)


class TestBoundarySemantics:
    @pytest.mark.parametrize("specs", [
        [("a", 1, 2, 3, 4), ("b", 2, 1, 1, 4)],
        [("a", 1, 1, 5, 3), ("b", 1, 2, 0, 5), ("c", 0, 3, 2, 2)],
    ])
    def test_exactly_t_syncs_and_final_drain(self, specs):
        trace = simulate(plan(Policy.CROSSOVER, specs))
        for job_id, _, _, _, iterations in specs:
            syncs = [s for s in trace.spans
                     if s.job_id == job_id and s.phase is Phase.SYNC]
            assert len(syncs) == iterations
            last_compute_end = max(s.end for s in trace.spans
                                   if s.job_id == job_id and s.phase is not Phase.SYNC)
            drain = max(syncs, key=lambda s: s.iteration)
            assert drain.iteration == iterations
            assert drain.start >= last_compute_end

    def test_first_iteration_needs_no_sync(self):
        # rotation fill only: each first compute starts at the sum of the
        # previous jobs' compute times, never waiting on the NIC
        specs = [("a", 2, 3, 50, 2), ("b", 1, 4, 50, 2), ("c", 3, 3, 50, 2)]
        trace = simulate(plan(Policy.CROSSOVER, specs))
        expected_start = 0
        for job_id, fwd, bwd, _, _ in specs:
            first = min((s for s in trace.spans
                         if s.job_id == job_id and s.phase is Phase.FORWARD),
                        key=lambda s: s.iteration)
            assert first.start == expected_start
            expected_start += fwd + bwd


class TestHidingCondition:
    @pytest.mark.parametrize("n_jobs", [2, 3, 4])
    @pytest.mark.parametrize("ratio_tenths", range(0, 11))
    def test_sync_never_delays_compute(self, n_jobs, ratio_tenths):
        comp, iterations = 1_000_000, 50
        comm = ratio_tenths * comp // 10
        specs = [(f"j{i}", comp // 2, comp - comp // 2, comm, iterations)
                 for i in range(n_jobs)]
        trace = simulate(plan(Policy.CROSSOVER, specs))
        for idx in range(n_jobs):
            starts = sorted(s.start for s in trace.spans
                            if s.job_id == f"j{idx}" and s.phase is Phase.FORWARD)
            assert starts == [idx * comp + t * n_jobs * comp
                              for t in range(iterations)]

    def test_asymptotic_agreement_at_large_t(self):
        p = two_identical(comp=1_000, comm=700, iterations=1000)
        makespan = simulate(p).makespan
        period = steady_state_period(p)
        assert abs(makespan / (1000 * period) - 1) < 0.01


class TestWorkConservation:
    def test_compute_budget_fully_spent(self):
        specs = [("a", 3, 4, 5, 6), ("b", 2, 2, 9, 4)]
        trace = simulate(plan(Policy.CROSSOVER, specs))
        for job_id, fwd, bwd, _, iterations in specs:
            busy = sum(s.end - s.start for s in trace.spans
                       if s.job_id == job_id and s.phase is not Phase.SYNC)
            assert busy == iterations * (fwd + bwd)


job_spec_st = st.tuples(
    st.integers(min_value=0, max_value=12),   # forward
    st.integers(min_value=0, max_value=12),   # backward
    st.integers(min_value=0, max_value=15),   # comm (ns == payload bytes)
    st.integers(min_value=1, max_value=6),    # iterations
).filter(lambda s: s[0] + s[1] > 0)

plan_st = st.lists(job_spec_st, min_size=1, max_size=4)


def build_specs(raw):
    return [(f"j{i}", fwd, bwd, comm, iters)
            for i, (fwd, bwd, comm, iters) in enumerate(raw)]


@settings(max_examples=200, deadline=None)
@given(plan_st)
def test_engine_matches_brute_force_enumeration(raw):
    specs = build_specs(raw)
    cross = simulate(plan(Policy.CROSSOVER, specs))
    seq = simulate(plan(Policy.SEQUENTIAL, specs))
    brute_x_spans, brute_x_makespan = brute_crossover(specs)
    brute_s_spans, brute_s_makespan = brute_sequential(specs)
    assert spans_from_trace(cross) == brute_x_spans
    assert spans_from_trace(seq) == brute_s_spans
    assert cross.makespan == brute_x_makespan
    assert seq.makespan == brute_s_makespan


@settings(max_examples=200, deadline=None)
@given(plan_st)
def test_baseline_dominance(raw):
    specs = build_specs(raw)
    cross = simulate(plan(Policy.CROSSOVER, specs)).makespan
    seq = simulate(plan(Policy.SEQUENTIAL, specs)).makespan
    assert cross <= seq
    if len(specs) >= 2 and all(s[3] > 0 for s in specs):
        assert cross < seq


@settings(max_examples=300, deadline=None)
@given(plan_st, st.sampled_from(Policy))
def test_trace_conforms_to_documented_semantics(raw, policy):
    """Checks a trace span by span against README "Scheduling semantics"."""
    specs = build_specs(raw)
    trace = simulate(plan(policy, specs))
    by_key = {(s.job_id, s.phase, s.iteration): s for s in trace.spans}
    assert len(by_key) == len(trace.spans)

    # a T-iteration job has exactly T syncs, one per iteration
    for job_id, _, _, _, iterations in specs:
        syncs = sorted(s.iteration for s in trace.spans
                       if s.job_id == job_id and s.phase is Phase.SYNC)
        assert syncs == list(range(1, iterations + 1))

    # the GPU serves jobs in plan order, round by round, skipping finished jobs
    computes = sorted((s for s in trace.spans if s.phase is Phase.FORWARD),
                      key=lambda s: s.start)
    rotation = [(job_id, t) for t in range(1, max(s[4] for s in specs) + 1)
                for job_id, _, _, _, iterations in specs if t <= iterations]
    assert [(s.job_id, s.iteration) for s in computes] == rotation

    # every span starts the moment whatever it waited on has ended:
    # a compute waits for the GPU (held through the sync under the
    # sequential baseline) and for its own previous sync; backward follows
    # forward; a sync waits for its backward and, FIFO in compute-completion
    # order, for the sync before it on the NIC
    backwards = [by_key[(s.job_id, Phase.BACKWARD, s.iteration)] for s in computes]
    syncs = [by_key[(s.job_id, Phase.SYNC, s.iteration)] for s in computes]
    for k, (fwd, bwd, sync) in enumerate(zip(computes, backwards, syncs)):
        waits_on = [0]
        own_prev_sync = by_key.get((fwd.job_id, Phase.SYNC, fwd.iteration - 1))
        if own_prev_sync:
            waits_on.append(own_prev_sync.end)
        if k:
            gpu_holder = syncs[k - 1] if policy is Policy.SEQUENTIAL else backwards[k - 1]
            waits_on.append(gpu_holder.end)
        assert fwd.start == max(waits_on)
        assert bwd.start == fwd.end
        assert sync.start == max(bwd.end, syncs[k - 1].end if k else 0)

    assert trace.makespan == max(s.end for s in trace.spans)


@settings(max_examples=150, deadline=None)
@given(st.lists(job_spec_st, min_size=2, max_size=4))
def test_steady_cycle_lower_bound(raw):
    specs = build_specs(raw)
    cycle = crossover_cycle(specs)
    total_comp = sum(f + b for _, f, b, _, _ in specs)
    total_comm = sum(c for _, _, _, c, _ in specs)
    tightest = max(total_comp, total_comm,
                   max(f + b + c for _, f, b, c, _ in specs))
    assert cycle >= tightest


@settings(max_examples=300, deadline=None)
@given(st.lists(job_spec_st, min_size=1, max_size=6))
def test_steady_state_period_matches_the_recurrence(raw):
    """Closed forms for any plan: 1-6 jobs, zero-length phases."""
    specs = build_specs(raw)
    cross = steady_state_period(plan(Policy.CROSSOVER, specs))
    assert cross == crossover_cycle(specs)
    # sequential: job j0's second compute starts one full rotation in
    rows = simulate(plan(Policy.SEQUENTIAL, [s[:4] + (2,) for s in specs])).rows
    seq = steady_state_period(plan(Policy.SEQUENTIAL, specs))
    assert seq == rows[len(specs)][2] - rows[0][2]
    assert predicted_speedup(plan(Policy.CROSSOVER, specs)) == Fraction(seq, cross)


@settings(max_examples=300, deadline=None)
@given(st.lists(job_spec_st, min_size=1, max_size=6))
def test_crossover_period_is_the_maximum_cycle_mean(raw):
    specs = build_specs(raw)
    assert steady_state_period(plan(Policy.CROSSOVER, specs)) == max_cycle_mean(specs)


RING = ClusterSpec(workers=3, bandwidth_bytes_per_sec=1_000_000_000,
                   latency_per_message=1, architecture=Architecture.RING_ALLREDUCE)

# Budgets up to 60 let a period repeat and be skipped inside one regime;
# unequal budgets make the active set change mid-run.
skip_spec_st = st.tuples(
    st.integers(min_value=0, max_value=30),   # forward
    st.integers(min_value=0, max_value=30),   # backward
    st.integers(min_value=0, max_value=40),   # grad_bytes
    st.integers(min_value=1, max_value=60),   # iterations
).filter(lambda s: s[0] + s[1] > 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(skip_spec_st, min_size=1, max_size=6), st.sampled_from([CLUSTER, RING]))
def test_makespan_equals_the_full_recurrence(raw, cluster):
    # simulate copies the rounds that makespan skips, so both are checked
    specs = build_specs(raw)
    priced = [(j, f, b, comm_time(g, cluster), n) for j, f, b, g, n in specs]
    for policy, brute in ((Policy.CROSSOVER, brute_crossover),
                          (Policy.SEQUENTIAL, brute_sequential)):
        p = plan(policy, specs, cluster)
        brute_spans, brute_makespan = brute(priced)
        trace = simulate(p)
        assert spans_from_trace(trace) == brute_spans
        assert makespan(p) == trace.makespan == brute_makespan


@st.composite
def distinct_budget_specs(draw):
    """1-8 jobs whose budgets are distinct: ``b, b + 1, ...`` and one larger, in any job order.

    Every regime after the first but the last lasts one round, and each
    drops one job from the rotation.
    """
    n = draw(st.integers(1, 8))
    least = draw(st.integers(1, 20))
    budgets = [*range(least, least + n - 1), least + n - 2 + draw(st.integers(1, 40))]
    return [(*spec[:3], iterations) for spec, iterations in
            zip(draw(st.lists(skip_spec_st, min_size=n, max_size=n)),
                draw(st.permutations(budgets)))]


@settings(max_examples=300, deadline=None)
@given(distinct_budget_specs(), st.sampled_from([CLUSTER, RING]))
def test_one_round_regimes_equal_the_full_recurrence(raw, cluster):
    specs = build_specs(raw)
    priced = [(j, f, b, comm_time(g, cluster), n) for j, f, b, g, n in specs]
    for policy, brute in ((Policy.CROSSOVER, brute_crossover),
                          (Policy.SEQUENTIAL, brute_sequential)):
        p = plan(policy, specs, cluster)
        trace = simulate(p)
        assert spans_from_trace(trace) == brute(priced)[0]
        assert makespan(p) == trace.makespan
        assert measure(trace, p).per_job_iteration_period == steady_period_reference(trace.rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(skip_spec_st, min_size=1, max_size=5), st.sampled_from([CLUSTER, RING]))
def test_sequential_sum_bounds_every_makespan(raw, cluster):
    # the bound SchedulePlan checks against 2^63
    specs = build_specs(raw)
    comms = tuple(comm_time(g, cluster) for _, _, _, g, _ in specs)
    total = sum(n * (f + b + c) for (_, f, b, _, n), c in zip(specs, comms))
    cross, seq = plan(Policy.CROSSOVER, specs, cluster), plan(Policy.SEQUENTIAL, specs, cluster)
    assert cross.comm_times == comms
    assert makespan(cross) <= makespan(seq) == total
    assert cross.sequential_makespan == seq.sequential_makespan == total


def test_plan_that_never_repeats_runs_round_by_round():
    # 1 ms computes and syncs 19 ns longer grow the NIC backlog by 57 ns a
    # round, so no round starts with the previous round's key in 2,000
    specs = [(f"j{i}", 400_000, 600_000, 1_000_019, 2_000) for i in range(3)]
    trace = simulate(plan(Policy.CROSSOVER, specs))
    brute_spans, brute_makespan = brute_crossover(specs)
    assert spans_from_trace(trace) == brute_spans
    assert makespan(plan(Policy.CROSSOVER, specs)) == trace.makespan == brute_makespan


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=90))
def test_makespan_closed_forms_at_a_trillion_iterations(n_jobs, fwd, bwd, comm):
    """N >= 2 identical jobs: reachable only by skipping periods."""
    budget, comp = 10**12, fwd + bwd
    specs = [(f"j{i}", fwd, bwd, comm, budget) for i in range(n_jobs)]
    assert (makespan(plan(Policy.CROSSOVER, specs))
            == n_jobs * budget * max(comp, comm) + min(comp, comm))
    assert makespan(plan(Policy.SEQUENTIAL, specs)) == n_jobs * budget * (comp + comm)


def test_makespan_skips_within_each_regime():
    # budgets m, 2m and 3m give three regimes whose periods are 20 (every
    # compute), 15 (b's and c's computes) and 9 (c's compute plus its sync),
    # so past the transients the full recurrence grows 44 per unit of m
    def specs(m):
        return [("a", 2, 3, 4, m), ("b", 1, 6, 2, 2 * m), ("c", 4, 4, 1, 3 * m)]

    full = [simulate(plan(Policy.CROSSOVER, specs(m))).makespan for m in (50, 51)]
    assert full[1] - full[0] == 44
    assert makespan(plan(Policy.CROSSOVER, specs(10**9))) == full[0] + (10**9 - 50) * 44


def drift_plan(iterations):
    """README's worst case: 1 ms computes and syncs 19 ns longer."""
    return plan(Policy.CROSSOVER,
                [(f"j{i}", 500_000, 500_000, 1_000_019, iterations) for i in range(3)])


def test_drift_plan_repeats_after_the_same_rounds():
    # 17,545 dispatched rounds, then the round that repeats holds the rest
    trace = simulate(drift_plan(20_000))
    assert len(trace.blocks) == 17_546
    assert [n for _, _, n in trace.blocks].count(0) == 17_545
    assert trace.makespan == makespan(drift_plan(20_000))


@pytest.mark.parametrize("iterations", [2_000, 20_000])
def test_makespan_keeps_no_rows(iterations):
    p = drift_plan(iterations)
    expected = makespan(p)
    tracemalloc.start()
    try:
        assert makespan(p) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def max_plus_jobs(p):
    """A plan's jobs as the oracles' tuples, with each job's priced sync."""
    return [(j.job_id, j.forward_time, j.backward_time, comm, j.iterations)
            for j, comm in zip(p.jobs, p.comm_times)]


budget_spec_st = st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
                           st.integers(1, 10**15)).filter(lambda s: s[0] + s[1] > 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(budget_spec_st, min_size=1, max_size=4), st.sampled_from(Policy))
def test_makespan_is_the_max_plus_power_at_any_budget(raw, policy):
    # the oracle reaches a budget of 10^15 in about 50 squarings per regime
    p = plan(policy, build_specs(raw))
    assert max_plus_state(max_plus_jobs(p), policy)[1] == makespan(p)


@settings(max_examples=100, deadline=None)
@given(st.lists(budget_spec_st, min_size=1, max_size=4))
def test_run_returns_the_max_plus_end_state(raw):
    # [gpu_free, nic_free, *sync_end], with and without blocks, under both policies
    for policy in Policy:
        p = plan(policy, build_specs(raw))
        state = max_plus_state(max_plus_jobs(p), policy)
        fields = (p.policy, p.jobs, p.comm_times)
        assert scheduler._run(*fields, None) == scheduler._run(*fields, []) == state


@settings(max_examples=300, deadline=None)
@given(st.lists(skip_spec_st, min_size=1, max_size=4), st.sampled_from(Policy))
def test_max_plus_state_is_each_jobs_last_row(raw, policy):
    p = plan(policy, build_specs(raw))
    gpu_free, nic_free, *sync_ends = max_plus_state(max_plus_jobs(p), policy)
    rows = simulate(p).rows
    last = {row[0]: row for row in rows}
    assert sync_ends == [last[j.job_id][6] for j in p.jobs]
    assert nic_free == rows[-1][6]
    assert gpu_free == rows[-1][6 if policy is Policy.SEQUENTIAL else 4]


@pytest.mark.parametrize("iterations", [20_000, 10**12])
def test_drift_plan_makespan_is_the_max_plus_power(iterations):
    # 17,545 rounds run before the schedule repeats; the oracle runs none
    p = drift_plan(iterations)
    assert max_plus_state(max_plus_jobs(p), Policy.CROSSOVER)[1] == makespan(p)


# (forward, backward, sync) of up to four jobs, in plan order
SHARED_DURATIONS = [(2, 3, 4), (1, 6, 2), (4, 4, 1), (3, 1, 5)]


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("budgets", [
    (30, 30, 30),       # one regime
    (12, 30, 30),       # the first job in plan order leaves first
    (30, 30, 12),       # the last one leaves first
    (12, 30, 12),       # the first and the last leave together
    (9, 40, 25, 40),    # two jobs leave at different budgets, two share the last
    (40, 9, 9, 40),     # the middle two leave together
], ids=lambda b: "-".join(map(str, b)) if isinstance(b, tuple) else b.value)
def test_jobs_sharing_and_leaving_match_the_brute_force(budgets, policy):
    specs = [(f"j{i}", *durations, n)
             for i, (durations, n) in enumerate(zip(SHARED_DURATIONS, budgets))]
    brute_spans, brute_makespan = {Policy.CROSSOVER: brute_crossover,
                                   Policy.SEQUENTIAL: brute_sequential}[policy](specs)
    p = plan(policy, specs)
    assert spans_from_trace(simulate(p)) == brute_spans
    assert makespan(p) == simulate(p).makespan == brute_makespan


@settings(max_examples=300, deadline=None)
@given(st.lists(skip_spec_st, min_size=1, max_size=5), st.sampled_from(Policy), st.data())
def test_less_work_never_lengthens_the_makespan(raw, policy, data):
    # a max-plus system is monotone: shorten one job's forward, backward or
    # sync, or lower its budget, and no time can grow
    specs = build_specs(raw)
    i = data.draw(st.integers(0, len(specs) - 1), label="job")
    field = data.draw(st.sampled_from([1, 2, 3, 4]), label="field")
    less = list(specs[i])
    less[field] = data.draw(st.integers(1 if field == 4 else 0, less[field]), label="value")
    assume(less[1] + less[2] > 0)
    shorter = specs[:i] + [tuple(less)] + specs[i + 1:]
    assert makespan(plan(policy, shorter)) <= makespan(plan(policy, specs))


class TestUnequalBudgets:
    def test_rotation_skips_finished_jobs(self):
        specs = [("short", 1, 1, 1, 2), ("long", 1, 1, 1, 5)]
        trace = simulate(plan(Policy.CROSSOVER, specs))
        for job_id, _, _, _, iterations in specs:
            syncs = [s for s in trace.spans
                     if s.job_id == job_id and s.phase is Phase.SYNC]
            assert len(syncs) == iterations
        # once the short job drains, the long one runs like a solo job
        brute_spans, brute_makespan = brute_crossover(specs)
        assert spans_from_trace(trace) == brute_spans
        assert trace.makespan == brute_makespan

    def test_plan_validation(self):
        with pytest.raises(ConfigError, match="at least one job"):
            SchedulePlan(Policy.CROSSOVER, (), CLUSTER)
        with pytest.raises(ConfigError, match="unique"):
            plan(Policy.CROSSOVER, [("dup", 1, 1, 1, 1), ("dup", 1, 1, 1, 1)])

    @pytest.mark.parametrize("policy", list(Policy))
    def test_sequential_makespan_must_stay_below_2_63(self, policy):
        # 2 iterations x (2^61 + 2^61 - 1 compute + 1 sync) = 2^63 - 2 + 2
        at_limit = [("a", 2**61, 2**61 - 1, 1, 2)]
        with pytest.raises(ConfigError, match=f"= {2**63} ns must stay below 2\\^63"):
            plan(policy, at_limit)
        assert issubclass(ConfigError, ValueError)
        below = plan(policy, [("a", 2**61, 2**61 - 2, 1, 2)])
        assert makespan(below) == 2**63 - 2

    def test_a_sum_past_the_digit_limit_is_quoted_by_its_power_of_two(self):
        # str() refuses an int of more than 4,300 digits
        job = JobProfile("a", 10**5000, 1, 1, 1)
        with pytest.raises(ConfigError, match=r"^plan: sequential makespan sum\(T_i \* "
                                              r"\(comp_i \+ comm_i\)\) = 2\^16609 or more ns "):
            SchedulePlan(Policy.CROSSOVER, (job,), ClusterSpec(2, 10**9))

    def test_the_largest_sum_written_out_is_just_below_2_1024(self):
        # 2^1024 - 1 has 309 digits, within any int-to-str limit
        with pytest.raises(ConfigError, match=f"= {2**1024 - 1} ns must"):
            plan(Policy.SEQUENTIAL, [("a", 2**1024 - 2, 0, 1, 1)])
        with pytest.raises(ConfigError, match=r"= 2\^1024 or more ns must"):
            plan(Policy.SEQUENTIAL, [("a", 2**1024 - 1, 0, 1, 1)])


JOB_NUMBERS = ("forward_time", "backward_time", "grad_bytes", "iterations")
CLUSTER_NUMBERS = ("workers", "bandwidth_bytes_per_sec", "latency_per_message")

# numbers a plan must not hold: each compares equal to, or near, a valid int
not_an_int_st = st.one_of(st.integers(1, 10**6).map(float), st.floats(0.5, 1e6),
                          st.booleans(), st.integers(1, 10**6).map(np.int64))
not_a_str_st = st.one_of(st.integers(), st.none(), st.binary(), st.text().map(np.str_),
                         st.tuples(st.text()))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("job_id", *JOB_NUMBERS, *CLUSTER_NUMBERS)), st.integers(0, 2),
       st.data())
def test_a_field_of_another_type_is_rejected_where_it_is_built(field, index, data):
    # a job is a plain record that its plan checks; a cluster checks itself
    bad = data.draw(not_a_str_st if field == "job_id" else not_an_int_st, label="value")
    if field in CLUSTER_NUMBERS:
        kwargs = dict(workers=2, bandwidth_bytes_per_sec=10**9, latency_per_message=0)
        with pytest.raises(ConfigError, match=rf"^cluster\.{field}: expected an int, got an? "
                                              rf"{type(bad).__name__}$"):
            ClusterSpec(**{**kwargs, field: bad})
        return
    jobs = [JobProfile(f"j{i}", 1, 2, 3, 4) for i in range(3)]
    jobs[index] = dataclasses.replace(jobs[index], **{field: bad})
    kind = "a str" if field == "job_id" else "an int"
    with pytest.raises(ConfigError, match=rf"^jobs\[{index}\]\.{field}: expected {kind}, "
                                          rf"got an? {type(bad).__name__}$"):
        SchedulePlan(Policy.CROSSOVER, tuple(jobs), CLUSTER)


class TestJobIdBound:
    """Every plan bounds its ids' JSON-escaped length, scenario or not."""

    # "x" escapes to 1 character, U+1F680 to 12 (a \u surrogate pair)
    @pytest.mark.parametrize("unit", ["x", "\U0001f680"])
    def test_longest_job_id_builds_a_plan(self, unit):
        width = len(json.dumps(unit)) - 2
        longest = unit * (_JOB_ID_LIMIT // width) + "x" * (_JOB_ID_LIMIT % width)
        assert len(json.dumps(longest)) - 2 == _JOB_ID_LIMIT
        p = plan(Policy.CROSSOVER, [("a", 1, 1, 1, 1), (longest, 1, 1, 1, 1)])
        assert p.jobs[1].job_id == longest

    # "\u00e9" escapes to 6 characters
    @pytest.mark.parametrize("job_id", [
        "x" * (_JOB_ID_LIMIT + 1),
        "\u00e9" * (_JOB_ID_LIMIT // 6) + "x" * (_JOB_ID_LIMIT % 6 + 1),
    ])
    def test_job_id_past_the_limit_is_rejected(self, job_id):
        with pytest.raises(ConfigError) as info:
            plan(Policy.CROSSOVER, [("a", 1, 1, 1, 1), (job_id, 1, 1, 1, 1)])
        assert str(info.value) == (f"jobs[1].job_id: {_JOB_ID_LIMIT + 1} characters once "
                                   f"JSON-escaped exceed the limit of {_JOB_ID_LIMIT}")


def _raises_invalid(trace, plan):
    try:
        measure(trace, plan)
    except InvalidTraceError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(plan_st, st.sampled_from(Policy), st.sampled_from([CLUSTER, RING]),
       st.integers(min_value=0, max_value=3))
def test_simulated_trace_is_checked_like_a_plain_one(raw, policy, cluster, bumped):
    # a trace simulate returned skips the schedule only for an equal plan:
    # against every other plan it gets the same messages as its bare rows
    specs = build_specs(raw)
    p = plan(policy, specs, cluster)
    trace = simulate(p)
    plain = Trace(trace.rows)
    assert trace.plan == p and plain.plan is None
    assert dataclasses.replace(trace, rows=trace.rows).plan is None
    with pytest.raises(TypeError):
        Trace(trace.rows, plan=p)
    bumped %= len(specs)
    variants = [
        p,
        dataclasses.replace(p, policy=next(q for q in Policy if q is not policy)),
        plan(policy, [s[:4] + (s[4] + 1,) if i == bumped else s
                      for i, s in enumerate(specs)], cluster),
        plan(policy, specs, dataclasses.replace(cluster, workers=cluster.workers + 1)),
    ]
    if len(specs) >= 2:
        variants.append(plan(policy, [specs[1], specs[0], *specs[2:]], cluster))
    for q in variants:
        assert validate_trace(trace, q) == validate_trace(plain, q)
        assert _raises_invalid(trace, q) == _raises_invalid(plain, q)
