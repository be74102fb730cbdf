import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from colosim.comm import Architecture, ClusterSpec
from colosim.engine import (
    Trace,
    trace_to_chrome_json,
    trace_to_json,
)
from colosim.errors import InvalidTraceError
from colosim.metrics import measure
from colosim.scheduler import Policy, SchedulePlan, simulate, validate_trace
from colosim.workload import JobProfile
from oracles import trace_to_chrome_json_reference, trace_to_json_reference

# rows: (job_id, iteration, start, backward_start, compute_end, sync_start, sync_end)
TIMES = ("start", "backward_start", "compute_end", "sync_start", "sync_end")

# Sync time equals grad_bytes, and zero bytes is a zero-length sync.
_CLUSTER = ClusterSpec(workers=2, bandwidth_bytes_per_sec=2_000_000_000,
                       architecture=Architecture.PARAMETER_SERVER)


def _plan(*specs, policy=Policy.CROSSOVER):
    """A plan of (job_id, forward, backward, grad_bytes, iterations) specs."""
    return SchedulePlan(policy, tuple(JobProfile(*spec) for spec in specs), _CLUSTER)


def legal_trace():
    return Trace((("j1", 1, 0, 1, 2, 2, 3), ("j1", 2, 3, 4, 5, 5, 6)))


LEGAL_PLAN = _plan(("j1", 1, 1, 1, 2))


class TestValidateTrace:
    def test_legal_trace_has_no_violations(self):
        assert validate_trace(legal_trace(), LEGAL_PLAN) == []

    def test_lane_overlap_is_one_violation(self):
        # j2 starts while j1 still holds the GPU
        rows = (("j1", 1, 0, 1, 2, 2, 3), ("j2", 1, 1, 2, 3, 3, 4))
        plan = _plan(("j1", 1, 1, 1, 1), ("j2", 1, 1, 1, 1))
        assert validate_trace(Trace(rows), plan) == [
            "row 1 (j2 iteration 1): start 1, expected 2"]

    def test_nic_overlap_is_one_violation(self):
        # j2's sync starts while j1's still holds the NIC
        rows = (("j1", 1, 0, 1, 2, 2, 6), ("j2", 1, 2, 3, 4, 5, 7))
        plan = _plan(("j1", 1, 1, 4, 1), ("j2", 1, 1, 2, 1))
        assert validate_trace(Trace(rows), plan) == [
            "row 1 (j2 iteration 1): sync_start 5, expected 6"]

    def test_compute_before_previous_sync_completes(self):
        rows = (("j1", 1, 0, 1, 2, 2, 5), ("j1", 2, 3, 4, 5, 5, 8))
        plan = _plan(("j1", 1, 1, 3, 2))
        assert validate_trace(Trace(rows), plan) == [
            "row 1 (j1 iteration 2): start 3, expected 5"]

    def test_duplicate_phase_span(self):
        rows = legal_trace().rows
        assert validate_trace(Trace(rows + rows[-1:]), LEGAL_PLAN) == [
            "row 2: j1 iteration 2 after the plan's last row"]
        assert validate_trace(Trace(rows[:1] + rows), LEGAL_PLAN) == [
            "row 1: j1 iteration 1, expected j1 iteration 2"]

    def test_iteration_gap(self):
        rows = (("j1", 1, 0, 1, 2, 2, 3), ("j1", 3, 3, 4, 5, 5, 6))
        assert validate_trace(Trace(rows), _plan(("j1", 1, 1, 1, 3))) == [
            "row 1: j1 iteration 3, expected j1 iteration 2"]

    def test_negative_start(self):
        trace = Trace((("j1", 1, -1, 1, 2, 2, 3),))
        assert validate_trace(trace, _plan(("j1", 2, 1, 1, 1))) == [
            "row 0 (j1 iteration 1): start -1, expected 0"]

    def test_rows_out_of_dispatch_order_rejected(self):
        rows = (("j1", 1, 0, 1, 2, 2, 3), ("j2", 1, 2, 3, 4, 4, 5))
        plan = _plan(("j1", 1, 1, 1, 1), ("j2", 1, 1, 1, 1))
        assert validate_trace(Trace(rows), plan) == []
        assert validate_trace(Trace(rows[::-1]), plan) == [
            "row 0: j2 iteration 1, expected j1 iteration 1"]

    def test_wrong_policy_is_reported_at_one_row(self):
        # a sequential trace of 1,000 rows against the crossover plan: every
        # row after the first breaks a rule, but only row 1 is reported
        jobs = (("j1", 1, 1, 1, 500), ("j2", 1, 1, 1, 500))
        trace = simulate(_plan(*jobs, policy=Policy.SEQUENTIAL))
        assert len(trace.rows) == 1000
        violations = validate_trace(trace, _plan(*jobs))
        assert violations
        assert all(v.startswith("row 1 (j2 iteration 1): ") for v in violations)


# (forward, backward, grad_bytes, iterations); forward + backward must be > 0
_JOB = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6),
                 st.integers(1, 5)).filter(lambda j: j[0] + j[1] > 0)


def _with_rows(trace, i, *new):
    """The trace with row i replaced by the rows in new."""
    return dataclasses.replace(trace, rows=trace.rows[:i] + new + trace.rows[i + 1:])


@settings(max_examples=150, deadline=None)
@given(st.lists(_JOB, min_size=1, max_size=4), st.sampled_from(Policy))
def test_validator_is_tight(specs, policy):
    # every trace but the plan's schedule itself is reported; a nudged row's
    # first message names the nudged field and the value it had
    jobs = [(f"j{i}", *spec) for i, spec in enumerate(specs)]
    plan = _plan(*jobs, policy=policy)
    other = _plan(*jobs, policy=next(p for p in Policy if p is not policy))
    trace = simulate(plan)
    assert validate_trace(trace, plan) == []
    rows = trace.rows
    for i, row in enumerate(rows):
        job_id, t = row[:2]
        for col in range(1, 7):
            for delta in (-1, 1):
                moved = row[:col] + (row[col] + delta,) + row[col + 1:]
                first = validate_trace(_with_rows(trace, i, moved), plan)[0]
                if col == 1:
                    assert first == (f"row {i}: {job_id} iteration {t + delta}, "
                                     f"expected {job_id} iteration {t}")
                else:
                    assert first == (f"row {i} ({job_id} iteration {t}): "
                                     f"{TIMES[col - 2]} {row[col] + delta}, "
                                     f"expected {row[col]}")
        if i + 1 < len(rows):
            swapped = rows[:i] + (rows[i + 1], row) + rows[i + 2:]
            assert validate_trace(dataclasses.replace(trace, rows=swapped), plan), i
        assert validate_trace(_with_rows(trace, i), plan), i
        assert validate_trace(_with_rows(trace, i, row, row), plan), i
        with pytest.raises(InvalidTraceError):
            measure(_with_rows(trace, i), plan)
    if simulate(other).rows != rows:
        assert validate_trace(trace, other)


class TestExports:
    def test_span_json_fields(self):
        import json
        records = json.loads(trace_to_json(legal_trace()))
        assert len(records) == 6
        assert records[0] == {"lane_id": "gpu0", "job_id": "j1", "phase": "forward",
                              "iteration": 1, "start_ns": 0, "end_ns": 1}

    def test_chrome_trace_required_keys(self):
        import json
        doc = json.loads(trace_to_chrome_json(legal_trace()))
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 6
        for e in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        # one viewer row per lane
        assert {e["tid"] for e in complete} == {0, 1}


# ids that exercise json's ensure_ascii escaping: quotes, backslashes, control
# characters, non-ASCII, astral-plane and lone-surrogate code points; ids with
# % signs; and ids spelling the exporters' template placeholders, which must
# come out as literal text
_ESCAPING_IDS = ["gpu0", "nic0", "j1", '"', "\\", "a\"b\\c", "\x00\n\t\x1f\x7f",
                 "é", "ジョブ", "\U0001f680", "\ud800", "\u2028", "</script>", "",
                 "%", "%s", "%%d", "100%", "{job}", "{lane}", "{phase}", "{tid}", "{n}"]
_ID = st.one_of(
    st.sampled_from(_ESCAPING_IDS),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
# up to ~10^16 ns: well past where start / 1000.0 stops being exact
_NS = st.integers(min_value=0, max_value=10**16)


@st.composite
def _traces(draw):
    jobs = draw(st.lists(_ID, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        times = [draw(_NS)]
        for _ in range(4):  # zero-length phases included
            times.append(times[-1] + draw(st.one_of(st.just(0), _NS)))
        rows.append((draw(st.sampled_from(jobs)), draw(st.integers(0, 10**6)), *times))
    return Trace(tuple(rows))


@settings(max_examples=300, deadline=None)
@given(_traces())
@example(Trace(()))
@example(Trace(tuple((job_id, 1, 0, 0, 1, 1, 2) for job_id in _ESCAPING_IDS)))
# one row: the document's tail takes the place of its only row's separator
@example(Trace((("{n}", 7, 1, 2, 3, 4, 5),)))
# two jobs with equal compute phases, and a sync past 2**53 ns that repeats:
# the Chrome exporter makes each distinct duration's text once per call
@example(Trace((("%s", 1, 0, 7, 14, 14, 2**53 + 15),
                ("100%", 1, 14, 21, 28, 2**53 + 15, 2**54 + 16),
                ("%s", 2, 28, 35, 42, 2**54 + 16, 3 * 2**53 + 17))))
def test_serializers_byte_identical_to_json_dumps(trace):
    assert trace_to_json(trace) == trace_to_json_reference(trace)
    assert trace_to_chrome_json(trace) == trace_to_chrome_json_reference(trace)
