"""Any number at a public numeric entry point ends in a result or a ``ConfigError``.

Ints past the 4,300 digits ``str`` writes, floats, bools, numpy integers and
negatives go into ``JobProfile`` (which ``SchedulePlan`` checks),
``ClusterSpec`` and ``comm_time``.  Each plan that builds is run through
``makespan``, ``simulate``, ``steady_state_period`` and ``predicted_speedup``.
The valid ints stay small, so every plan that builds runs in a moment.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from colosim import (ClusterSpec, ConfigError, InvalidTraceError, JobProfile, Policy,
                     SchedulePlan, comm_time, makespan, predicted_speedup, simulate,
                     steady_state_period)

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
