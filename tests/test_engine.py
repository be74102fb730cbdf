import dataclasses

from hypothesis import example, given, settings, strategies as st

from colosim.engine import (
    Phase,
    Span,
    Trace,
    trace_to_chrome_json,
    trace_to_json,
    validate_trace,
)
from oracles import trace_to_chrome_json_reference, trace_to_json_reference


def span(lane, job, phase, it, start, end):
    return Span(lane, job, phase, it, start, end)


def legal_trace():
    spans = (
        span("gpu0", "j1", Phase.FORWARD, 1, 0, 1),
        span("gpu0", "j1", Phase.BACKWARD, 1, 1, 2),
        span("nic0", "j1", Phase.SYNC, 1, 2, 3),
        span("gpu0", "j1", Phase.FORWARD, 2, 3, 4),
        span("gpu0", "j1", Phase.BACKWARD, 2, 4, 5),
        span("nic0", "j1", Phase.SYNC, 2, 5, 6),
    )
    return Trace(spans, 6)


class TestValidateTrace:
    def test_legal_trace_has_no_violations(self):
        assert validate_trace(legal_trace()) == []

    def test_lane_overlap_is_one_violation(self):
        spans = (
            span("gpu0", "j1", Phase.FORWARD, 1, 0, 4),
            span("gpu0", "j2", Phase.FORWARD, 1, 3, 5),
            span("gpu0", "j1", Phase.BACKWARD, 1, 5, 6),
            span("gpu0", "j2", Phase.BACKWARD, 1, 6, 7),
            span("nic0", "j1", Phase.SYNC, 1, 6, 7),
            span("nic0", "j2", Phase.SYNC, 1, 7, 8),
        )
        violations = validate_trace(Trace(spans, 8))
        assert len(violations) == 1
        assert "overlap" in violations[0]

    def test_missing_sync_for_non_final_iteration(self):
        spans = tuple(s for s in legal_trace().spans
                      if not (s.phase is Phase.SYNC and s.iteration == 1))
        violations = validate_trace(Trace(spans, 6))
        assert violations == ["job j1: missing sync span for iteration 1"]

    def test_missing_sync_for_final_iteration(self):
        # the final sync drains too: a T-iteration job has exactly T syncs
        spans = tuple(s for s in legal_trace().spans
                      if not (s.phase is Phase.SYNC and s.iteration == 2))
        violations = validate_trace(Trace(spans, 5))
        assert violations == ["job j1: missing sync span for iteration 2"]

    def test_compute_before_previous_sync_completes(self):
        spans = (
            span("gpu0", "j1", Phase.FORWARD, 1, 0, 1),
            span("gpu0", "j1", Phase.BACKWARD, 1, 1, 2),
            span("nic0", "j1", Phase.SYNC, 1, 2, 5),
            span("gpu0", "j1", Phase.FORWARD, 2, 3, 4),
            span("gpu0", "j1", Phase.BACKWARD, 2, 4, 5),
            span("nic0", "j1", Phase.SYNC, 2, 5, 6),
        )
        violations = validate_trace(Trace(spans, 6))
        assert any("before" in v and "sync completes" in v for v in violations)

    def test_wrong_makespan(self):
        trace = dataclasses.replace(legal_trace(), makespan=7)
        assert validate_trace(trace) == ["makespan 7 != max span end 6"]

    def test_duplicate_phase_span(self):
        spans = legal_trace().spans + (span("nic0", "j1", Phase.SYNC, 2, 6, 7),)
        violations = validate_trace(Trace(spans, 7))
        assert any("duplicate sync" in v for v in violations)

    def test_negative_start(self):
        trace = Trace((span("gpu0", "j1", Phase.FORWARD, 1, -1, 1),
                       span("gpu0", "j1", Phase.BACKWARD, 1, 1, 2)), 2)
        assert any("bad interval" in v for v in validate_trace(trace))


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
# characters, non-ASCII, astral-plane and lone-surrogate code points
_ID = st.one_of(
    st.sampled_from(["gpu0", "nic0", "j1", '"', "\\", "a\"b\\c", "\x00\n\t\x1f\x7f",
                     "é", "ジョブ", "\U0001f680", "\ud800", "\u2028", "</script>", ""]),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
# up to ~10^16 ns: well past where start / 1000.0 stops being exact
_NS = st.integers(min_value=0, max_value=10**16)


@st.composite
def _traces(draw):
    lanes = draw(st.lists(_ID, min_size=1, max_size=3))
    jobs = draw(st.lists(_ID, min_size=1, max_size=3))
    spans = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        start = draw(_NS)
        end = start + draw(st.one_of(st.just(0), _NS))  # zero-length spans included
        spans.append(Span(draw(st.sampled_from(lanes)), draw(st.sampled_from(jobs)),
                          draw(st.sampled_from(Phase)), draw(st.integers(0, 10**6)),
                          start, end))
    return Trace(tuple(spans), max((s.end for s in spans), default=0))


@settings(max_examples=300, deadline=None)
@given(_traces())
@example(Trace((), 0))
def test_serializers_byte_identical_to_json_dumps(trace):
    assert trace_to_json(trace) == trace_to_json_reference(trace)
    assert trace_to_chrome_json(trace) == trace_to_chrome_json_reference(trace)
