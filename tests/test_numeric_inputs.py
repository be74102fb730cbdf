"""Any input at a public entry point ends in a result or a ``ConfigError``.

Ints past the 4,300 digits ``str`` writes, floats, bools, numpy integers and
negatives go into ``JobProfile`` (which ``SchedulePlan`` checks),
``ClusterSpec``, ``comm_time``, ``SgdConfig``'s seeds and
``Scenario.plan``'s iterations, and values of other types into the fields
of ``SchedulePlan`` and ``ClusterSpec`` that hold records or enum members,
and into ``validate_trace``, ``measure`` and ``report``.  Each plan that
builds is run through ``makespan``, ``simulate``, ``steady_state_period``
and ``predicted_speedup``, and each SGD config that builds through
``check_neutrality``.  The valid ints stay small, so every plan that builds
runs in a moment.
"""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colosim import (ClusterSpec, ConfigError, InvalidTraceError, JobProfile, Metrics, Policy,
                     SchedulePlan, Trace, comm_time, fixture_profile, load_config, makespan,
                     measure, predicted_speedup, report, simulate, steady_state_period,
                     validate_trace)
from colosim import equivalence
from colosim.equivalence import LossKind, SgdConfig, check_neutrality

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios" / "golden_2jobs.json"

PAST_DIGIT_LIMIT = 10**4300  # 4,301 digits

hostile_st = st.one_of(
    st.integers(0, 3).map(lambda k: PAST_DIGIT_LIMIT + k),
    st.integers(0, 3).map(lambda k: -PAST_DIGIT_LIMIT - k),
    st.integers(max_value=-1),
    st.floats(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


def number_st(least: int, most: int):
    return st.one_of(st.integers(least, most), hostile_st)


job_st = st.tuples(number_st(0, 50), number_st(0, 50), number_st(0, 50), number_st(1, 20))
cluster_st = st.tuples(number_st(1, 8), number_st(1, 10**10), number_st(0, 50))
FALLBACK_CLUSTER = ClusterSpec(2, 10**9)


def _outcome(f, *args):
    """``f(*args)``, or None when it raises ``ConfigError`` or ``InvalidTraceError``."""
    try:
        return f(*args)
    except (ConfigError, InvalidTraceError):
        return None


@settings(max_examples=150, deadline=None)
@given(st.lists(job_st, min_size=1, max_size=3), cluster_st, number_st(0, 10**6),
       st.sampled_from(Policy))
def test_numbers_end_in_a_result_or_a_config_error(jobs, cluster_fields, size, policy):
    cluster = _outcome(ClusterSpec, *cluster_fields) or FALLBACK_CLUSTER
    sync = _outcome(comm_time, size, cluster)
    assert sync is None or (type(sync) is int and sync >= 0)
    profiles = tuple(JobProfile(f"j{i}", *fields) for i, fields in enumerate(jobs))
    plan = _outcome(SchedulePlan, policy, profiles, cluster)
    if plan is None:
        return
    span = makespan(plan)
    assert type(span) is int and span == simulate(plan).makespan <= plan.sequential_makespan
    assert type(steady_state_period(plan)) is int
    assert predicted_speedup(plan) >= 1


# a loss that is not a LossKind, though some equal its name or value
not_a_loss_st = st.sampled_from(["least_squares", "LEAST_SQUARES", "logistic_regression",
                                 None, 0, LossKind])
ONE_JOB_PLAN = SchedulePlan(Policy.CROSSOVER, (JobProfile("a", 1, 1, 1, 3),), FALLBACK_CLUSTER)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(LossKind), not_a_loss_st), number_st(0, 10**6),
       number_st(0, 10**6))
def test_sgd_configs_end_in_a_result_or_a_config_error(loss, dataset_seed, rng_seed):
    config = _outcome(SgdConfig, loss, dataset_seed, rng_seed)
    valid = (isinstance(loss, LossKind)
             and all(type(seed) is int and seed >= 0 for seed in (dataset_seed, rng_seed)))
    assert (config is not None) == valid
    if config is not None:
        assert check_neutrality([config], ONE_JOB_PLAN).first_divergence is None


@pytest.mark.parametrize("args, message", [
    (("least_squares", 1, 2), r"^sgd_config\.loss: expected a LossKind, got a str$"),
    ((LossKind.LOGISTIC, -1, 0), r"^sgd_config\.dataset_seed: must be >= 0$"),
    ((LossKind.LOGISTIC, 1.5, 0), r"^sgd_config\.dataset_seed: expected an int, got a float$"),
    ((LossKind.LOGISTIC, 1, True), r"^sgd_config\.rng_seed: expected an int, got a bool$"),
    ((LossKind.LOGISTIC, 1, np.int64(2)), r"^sgd_config\.rng_seed: expected an int, got an int64$"),
])
def test_sgd_config_names_the_field(args, message):
    # a str loss used to train the logistic problem under a least-squares name
    with pytest.raises(ConfigError, match=message):
        SgdConfig(*args)


@pytest.mark.parametrize("entry, kind", [
    (None, "a NoneType"), ("least_squares", "a str"), ((LossKind.LOGISTIC, 1, 2), "a tuple"),
])
def test_a_config_entry_must_be_an_sgd_config(entry, kind):
    # None used to end in AttributeError: 'NoneType' object has no attribute 'rng_seed'
    jobs = (JobProfile("a", 1, 1, 1, 3), JobProfile("b", 1, 1, 1, 3))
    plan = SchedulePlan(Policy.CROSSOVER, jobs, FALLBACK_CLUSTER)
    with pytest.raises(ConfigError, match=rf"^configs\[0\]: expected an SgdConfig, got {kind}$"):
        check_neutrality([entry, SgdConfig(LossKind.LOGISTIC, 1, 2)], plan)


A_CONFIG = SgdConfig(LossKind.LOGISTIC, 1, 2)


# the library's entry, and the CLI's
@pytest.mark.parametrize("entry_point", [
    check_neutrality, lambda configs, plan: equivalence._check_cells([(configs, plan)]),
], ids=["check_neutrality", "check_cells"])
@pytest.mark.parametrize("configs, plan, message", [
    (None, ONE_JOB_PLAN, "configs: expected a list or tuple, got a NoneType"),
    (A_CONFIG, ONE_JOB_PLAN, "configs: expected a list or tuple, got an SgdConfig"),
    ((c for c in [A_CONFIG]), ONE_JOB_PLAN, "configs: expected a list or tuple, got a generator"),
    ([A_CONFIG], None, "plan: expected a SchedulePlan, got a NoneType"),
    ([[A_CONFIG]], ONE_JOB_PLAN, "configs[0]: expected an SgdConfig, got a list"),
], ids=["none", "bare_config", "generator", "no_plan", "nested"])
def test_the_sgd_containers_are_checked(entry_point, configs, plan, message):
    # each used to end in TypeError (no len()) or AttributeError (no .jobs);
    # an SgdConfig takes the same article whether it is expected or got
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        entry_point(configs, plan)


@pytest.mark.parametrize("iterations, quoted", [
    (10**5000, "2^16610 or more job-iterations in all"),  # two jobs: 2 * 10^5000
    (-10**5000, "must be >= 1, got -2^16609 or less"),
], ids=["above", "below"])
def test_scenario_plan_quotes_an_iteration_count_past_the_digit_limit(iterations, quoted):
    with pytest.raises(ConfigError, match=quoted.replace("^", r"\^")):
        load_config(GOLDEN).plan(iterations)


@pytest.mark.parametrize("iterations, kind", [
    ("5", "a str"), ([5], "a list"), (5.0, "a float"), (True, "a bool"), (np.int64(5), "an int64"),
])
def test_scenario_plan_takes_only_an_int_iteration_count(iterations, kind):
    # a str or a list used to reach `iterations < 1` and raise a plain TypeError
    with pytest.raises(ConfigError, match=rf"^iterations \(--iters\): expected an int, got {kind}$"):
        load_config(GOLDEN).plan(iterations)


def test_an_unknown_fixture_profile_is_a_config_error():
    for name in ("alexnet", 10**5000, ["resnet50"]):
        with pytest.raises(ConfigError, match=r"^fixture profile .* is not one of resnet50, vgg16$"):
            fixture_profile(name)


TWO_JOBS = (JobProfile("a", 3, 3, 10**6, 4), JobProfile("b", 3, 3, 10**6, 4))


@pytest.mark.parametrize("record, args, message", [
    (SchedulePlan, ("sequential", TWO_JOBS, FALLBACK_CLUSTER),
     "policy: expected a Policy, got a str"),
    (SchedulePlan, (Policy.SEQUENTIAL, (None,), FALLBACK_CLUSTER),
     "jobs[0]: expected a JobProfile, got a NoneType"),
    (SchedulePlan, (Policy.SEQUENTIAL, (TWO_JOBS[0], ("b", 3, 3, 10**6, 4)), FALLBACK_CLUSTER),
     "jobs[1]: expected a JobProfile, got a tuple"),
    (SchedulePlan, (Policy.SEQUENTIAL, TWO_JOBS, None),
     "cluster: expected a ClusterSpec, got a NoneType"),
    (SchedulePlan, (Policy.CROSSOVER, None, FALLBACK_CLUSTER),
     "jobs: expected a list or tuple, got a NoneType"),
    (SchedulePlan, (Policy.CROSSOVER, 5, FALLBACK_CLUSTER),
     "jobs: expected a list or tuple, got an int"),
    (SchedulePlan, (Policy.CROSSOVER, iter(TWO_JOBS), FALLBACK_CLUSTER),
     "jobs: expected a list or tuple, got a tuple_iterator"),
    (ClusterSpec, (2, 10**9, 0, "ring_allreduce"),
     "cluster.architecture: expected an Architecture, got a str"),
], ids=["str_policy", "none_job", "tuple_job", "no_cluster", "no_jobs", "int_jobs",
        "iterator_jobs", "str_architecture"])
def test_a_record_takes_only_its_field_types(record, args, message):
    # a str policy used to run the crossover schedule under the name
    # "sequential" (8,000,006 ns here against Policy.SEQUENTIAL's 8,000,048),
    # a str architecture was priced as a parameter server, every sync twice
    # as long, a None job or cluster ended in AttributeError, and a None or
    # int jobs in TypeError
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        record(*args)


A_TRACE = Trace((("x", 1, 2, 3, 4, 5, 6),))


@pytest.mark.parametrize("entry_point", [validate_trace, measure])
@pytest.mark.parametrize("trace, plan, message", [
    (A_TRACE, None, "plan: expected a SchedulePlan, got a NoneType"),
    (A_TRACE, Policy.CROSSOVER, "plan: expected a SchedulePlan, got a Policy"),
    (A_TRACE.rows, ONE_JOB_PLAN, "trace: expected a Trace, got a tuple"),
    (None, ONE_JOB_PLAN, "trace: expected a Trace, got a NoneType"),
], ids=["no_plan", "policy_plan", "rows", "no_trace"])
def test_a_trace_check_takes_only_a_trace_and_a_plan(entry_point, trace, plan, message):
    # a plain trace and no plan used to pass validate_trace, since both
    # plans are None, and then measure raised AttributeError
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        entry_point(trace, plan)


@pytest.mark.parametrize("fmt", ["json", "csv", "table", "yaml"])
@pytest.mark.parametrize("metrics, kind", [
    (None, "a NoneType"), (5, "an int"), (A_TRACE, "a Trace"),
], ids=["none", "int", "trace"])
def test_a_report_takes_only_a_metrics(metrics, kind, fmt):
    # report(None, "json") and report(5, "csv") used to end in AttributeError
    with pytest.raises(ConfigError, match=rf"^metrics: expected a Metrics, got {kind}$"):
        report(metrics, fmt)


A_METRICS = Metrics("s", "crossover", 10, {"a": 4}, {"a": 2}, Fraction(1, 2), Fraction(1, 3),
                    Fraction(2, 10**8))


@pytest.mark.parametrize("field, value, message", [
    ("makespan", True, "metrics.makespan: expected an int, got a bool"),
    ("makespan", Fraction(3, 2), "metrics.makespan: expected an int, got a Fraction"),
    ("makespan", 10.0, "metrics.makespan: expected an int, got a float"),
    ("per_job_iterations", {"a": True},
     "metrics.per_job_iterations['a']: expected an int, got a bool"),
    ("per_job_iteration_period", {"a": "4"},
     "metrics.per_job_iteration_period['a']: expected an int, got a str"),
    ("per_job_iterations", {1: 2}, "metrics.per_job_iterations key: expected a str, got an int"),
    ("gpu_utilization", 0.5, "metrics.gpu_utilization: expected a Fraction, got a float"),
    ("speedup_vs_baseline", 2, "metrics.speedup_vs_baseline: expected a Fraction, got an int"),
], ids=["bool_makespan", "fraction_makespan", "float_makespan", "bool_iterations",
        "str_period", "int_job_id", "float_utilization", "int_speedup"])
def test_a_metrics_takes_only_its_field_types(field, value, message):
    # report(m, "json") used to write a bool makespan as True and a Fraction
    # one as 3/2, neither of them JSON
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        dataclasses.replace(A_METRICS, **{field: value})


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("field, value, message", [
    ("per_job_iterations", True, "metrics.per_job_iterations['a']: expected an int, got a bool"),
    ("per_job_iteration_period", "4",
     "metrics.per_job_iteration_period['a']: expected an int, got a str"),
], ids=["bool_iterations", "str_period"])
def test_a_report_checks_the_entries_of_its_metrics(field, value, message, fmt):
    # a Metrics keeps the caller's dicts: an entry edited after it was built
    # used to be written as it was, "iterations": True in metrics.json and an
    # aggregate of 1 in metrics.csv
    entries = {"a": 4}
    metrics = dataclasses.replace(A_METRICS, **{field: entries})
    entries["a"] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        report(metrics, fmt)


@pytest.mark.parametrize("sync_end, kind", [("s", "a str"), (6.5, "a float"), (True, "a bool")],
                         ids=["str", "float", "bool"])
def test_makespan_takes_only_an_int_sync_end(sync_end, kind):
    # a str used to end in TypeError, and a float or a bool came back as the makespan
    trace = Trace((("a", 1, 2, 3, 4, 5, sync_end),))
    with pytest.raises(InvalidTraceError) as raised:
        trace.makespan
    assert raised.value.violations == [f"row 0: sync_end {sync_end!r}, {kind}, expected an int"]
