import copy
import dataclasses
import json
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from colosim import engine
from colosim.comm import Architecture, ClusterSpec
from colosim.engine import (
    _FRACTIONS,
    Trace,
    _micros,
    trace_to_chrome_json,
    trace_to_json,
)
from colosim.errors import InvalidTraceError
from colosim.metrics import measure
from colosim.scheduler import Policy, SchedulePlan, makespan, simulate, validate_trace
from colosim.workload import JobProfile
from oracles import (expand_blocks, spans_from_trace, trace_to_chrome_json_reference,
                     trace_to_json_reference)

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


class _Int(int):
    pass


class _Str(str):
    pass


# each field's value itself, which keeps the trace valid, and values that
# equal it (or, as text, spell it) but are not of its exact type
_SAME = [lambda v: v]
_LOOKALIKES = (_SAME + [_Str], _SAME + [float, _Int, Fraction, str])


@settings(max_examples=200, deadline=None)
@given(st.lists(_JOB, min_size=1, max_size=3), st.sampled_from(Policy), st.data())
def test_accepted_traces_serialize_to_json(specs, policy, data):
    plan = _plan(*[(f"j{i}", *spec) for i, spec in enumerate(specs)], policy=policy)
    rows = simulate(plan).rows
    i = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, 6))
    value = rows[i][col]
    lookalikes = _LOOKALIKES[col > 0] + ([bool] if col and value in (0, 1) else [])
    edit = data.draw(st.sampled_from(lookalikes))
    edited = rows[i][:col] + (edit(value),) + rows[i][col + 1:]
    trace = Trace(rows[:i] + (edited,) + rows[i + 1:])
    accepted = validate_trace(trace, plan) == []
    assert accepted == (type(edited[col]) is type(value))
    if accepted:
        json.loads(trace_to_json(trace))
        json.loads(trace_to_chrome_json(trace))


@settings(max_examples=100, deadline=None)
@given(st.lists(_JOB, min_size=1, max_size=4), st.integers(1, 8), st.sampled_from(Policy))
# the plan of _copying_plan, whose simulated trace holds blocks with copies
@example([(1, 2, 3, 40), (2, 1, 1, 100), (1, 1, 4, 70)], 1, Policy.CROSSOVER)
def test_spans_match_the_oracle(specs, scale, policy):
    # budgets are scaled up so that rounds repeat and blocks get copies
    plan = _plan(*[(f"j{i}", f, b, g, t * scale) for i, (f, b, g, t) in enumerate(specs)],
                 policy=policy)
    trace = simulate(plan)
    expected = spans_from_trace(trace)
    for each in (simulate(plan), Trace(trace.rows)):
        assert [(s.lane_id, s.job_id, s.phase.value, s.iteration, s.start, s.end)
                for s in each.spans] == expected


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


def _copying_plan():
    """Three regimes with unequal budgets, each reaching a repeating round."""
    return _plan(("a", 1, 2, 3, 40), ("b", 2, 1, 1, 100), ("c", 1, 1, 4, 70))


class TestLazyRows:
    def test_plan_copies_rounds(self):
        # the cases below hold for blocks with repeats, not only dispatched rows
        trace = simulate(_copying_plan())
        assert sum(repeats > 0 for _, _, repeats in trace.blocks) == 3
        assert trace.makespan == trace.rows[-1][6]

    def test_simulate_makespan_validate_and_measure_build_no_rows(self, expansions):
        p = _copying_plan()
        trace = simulate(p)
        assert trace.makespan == makespan(p)
        assert validate_trace(trace, p) == []
        measure(trace, p)
        assert expansions == []

    def test_rows_are_built_once(self, expansions):
        trace = simulate(_copying_plan())
        rows = trace.rows
        assert trace.rows is rows
        assert len(expansions) == 1

    def test_equal_to_a_trace_of_its_rows(self):
        p = _copying_plan()
        plain = Trace(simulate(p).rows)
        assert simulate(p) == plain
        assert hash(simulate(p)) == hash(plain)

    def test_unread_trace_survives_pickle_and_deepcopy(self, expansions):
        p = _copying_plan()
        copies = [pickle.loads(pickle.dumps(simulate(p))), copy.deepcopy(simulate(p)),
                  copy.copy(simulate(p))]
        assert expansions == []
        for trace in copies:
            assert trace.plan == p
            assert trace == simulate(p)

    def test_other_attributes_are_missing(self):
        simulated = simulate(_copying_plan())
        for trace in (legal_trace(), simulated, pickle.loads(pickle.dumps(simulated))):
            assert getattr(trace, "spam", None) is None
            with pytest.raises(AttributeError):
                trace.spam

    def test_empty_trace(self):
        assert Trace(()).makespan == 0
        assert Trace(()).blocks == ()

    @pytest.mark.parametrize("rows, message", [
        (lambda first: ((1, 2),), "row 0: a tuple of 2 fields, expected a tuple of 7 fields"),
        (lambda first: (first, None), "row 1: a NoneType, expected a tuple of 7 fields"),
        (lambda first: (first + (7,),), "row 0: a tuple of 8 fields, expected a tuple of 7 fields"),
    ], ids=["short", "none", "long"])
    def test_makespan_of_a_misshapen_last_row_is_an_invalid_trace(self, rows, message):
        # a short last row used to end in IndexError; the message is the one
        # validate_trace gives the same row
        p = _plan(("a", 1, 2, 3, 2))
        trace = Trace(rows(simulate(p).rows[0]))
        with pytest.raises(InvalidTraceError) as raised:
            trace.makespan
        assert raised.value.violations == [message]
        assert validate_trace(trace, p) == [message]

    def test_rows_field_has_no_default(self):
        assert dataclasses.fields(Trace)[0].name == "rows"
        assert dataclasses.fields(Trace)[0].default is dataclasses.MISSING
        with pytest.raises(TypeError):
            Trace()


# ids that exercise json's ensure_ascii escaping: quotes, backslashes, control
# characters, non-ASCII, astral-plane and lone-surrogate code points; ids with
# % signs; and ids spelling the exporters' template placeholders, which must
# come out as literal text
_ESCAPING_IDS = ["gpu0", "nic0", "j1", '"', "\\", "a\"b\\c", "\x00\n\t\x1f\x7f",
                 "é", "ジョブ", "\U0001f680", "\ud800", "\u2028", "</script>", "",
                 "%", "%s", "%%d", "100%", "{job}", "{lane}", "{phase}", "{tid}", "{n}",
                 "{dur}", "t{n}"]
_ID = st.one_of(
    st.sampled_from(_ESCAPING_IDS),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
# up to ~10^16 ns: well past where start / 1000.0 stops being exact, and
# often near 10^15 ns, where the Chrome exporter's fast path for ts ends
_NS = st.one_of(st.integers(min_value=0, max_value=10**16),
                st.integers(min_value=10**15 - 10**4, max_value=10**15 + 10**4))


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
# rows whose Chrome ts or dur values take _micros's repr fallback: ts values
# that straddle 10**15 ns, a start past 10**16 ns after its backward start (so
# a negative duration), and negative times
@example(Trace((("j", 1, 10**15 - 1, 10**15 - 1, 10**15 - 1, 10**15, 10**15 + 1),)))
@example(Trace((("j", 1, 10**16 + 1, 1500, 1500, 2500, 3999),)))
@example(Trace((("j", 1, -1500, -1, 0, 7, 1001),)))
def test_serializers_byte_identical_to_json_dumps(trace):
    # with up to 4 rows, 1 to 3 rows per chunk lay out empty, one-row,
    # exact-multiple and multiple-plus-one documents
    expected = trace_to_json_reference(trace), trace_to_chrome_json_reference(trace)
    for rows_per_write in (1, 2, 3, engine._WRITE_ROWS):
        with mock.patch.object(engine, "_WRITE_ROWS", rows_per_write):
            assert (trace_to_json(trace), trace_to_chrome_json(trace)) == expected


@st.composite
def _blocks(draw):
    """Blocks as ``Trace._of`` keeps them: rounds of drawn rows, shifts and repeats.

    Repeats of 0 are drawn half the time, so unrepeated rounds come in runs.
    """
    jobs = draw(st.lists(_ID, min_size=1, max_size=3))
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        rows = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            times = [draw(_NS)]
            for _ in range(4):  # zero-length phases included
                times.append(times[-1] + draw(st.one_of(st.just(0), _NS)))
            rows.append((draw(st.sampled_from(jobs)), draw(st.integers(0, 10**6)), *times))
        repeats = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=5)))
        blocks.append((tuple(rows), draw(st.one_of(st.just(0), _NS)), repeats))
    return tuple(blocks)


# a round of 600 rows, longer than one chunk at every size below: unrepeated,
# then repeated, between runs of short unrepeated rounds
_LONG_ROUND = tuple((f"j{k}", 1, k, k + 1, k + 2, 10**6 + k, 10**6 + k + 5) for k in range(600))
# a round of 600 rows whose ids spell slots and whose spans last differently
# from row to row, some past 10**15 ns, where _micros takes repr
_SLOT_IDS = ("{job}", "{n}", "%s", "t{n}", "{dur}")
_VARIED_ROUND = tuple(
    (_SLOT_IDS[k % 5], k, 7 * k, 7 * k + k % 3, 7 * k + k % 3 + 1000 * (k % 7),
     10**7 + k, 10**7 + k + (10**15 if k % 50 == 0 else 1001 * (k % 11)))
    for k in range(600))


@settings(max_examples=200, deadline=None)
@given(_blocks())
@example(())
@example(((_LONG_ROUND, 0, 0), (_LONG_ROUND, 10**7, 2)))
@example(((_LONG_ROUND[:1], 0, 0), (_LONG_ROUND[:2], 0, 0), (_LONG_ROUND, 3 * 10**6, 3),
          (_LONG_ROUND[:3], 10**7, 0), (_LONG_ROUND[:1], 10**15, 5)))
# a repeated round whose rows' spans last differently, one of them past
# 10**15 ns, then the same round's first two rows repeated on their own
@example(((_VARIED_ROUND[:5], 10**8, 4), (_VARIED_ROUND[:2], 10**8, 3)))
# a repeated round longer than a chunk, whose rows' spans last differently
@example(((_VARIED_ROUND, 10**9, 2),))
# copies that split unevenly across chunks: 200 rows 5 times (2, 2 and 1 copies
# to a chunk of 512 rows), 2 rows 5 times and 1 row 7 times (2, 2, 2 and 1 to a
# chunk of 2; 3, 3 and 1 to a chunk of 3)
@example(((_VARIED_ROUND[:200], 10**9, 5), (_VARIED_ROUND[200:202], 10**9, 5),
          (_VARIED_ROUND[202:203], 10**9, 7)))
def test_block_reader_writes_the_expanded_rows(blocks):
    # the rows and documents of a trace held as blocks are those of the rows
    # the blocks stand for, at any chunk size; chunks hold whole copies of a
    # round, the last chunk takes the tail, and both layouts share each chunk
    rows = Trace(expand_blocks(blocks))
    expected = trace_to_json_reference(rows), trace_to_chrome_json_reference(rows)
    layouts = (engine._JSON, engine._CHROME)
    for rows_per_write in (1, 2, 3, 512):
        with mock.patch.object(engine, "_WRITE_ROWS", rows_per_write):
            trace = Trace._of(blocks, None)
            assert trace.rows == rows.rows
            assert (trace_to_json(trace), trace_to_chrome_json(trace)) == expected
            both = list(engine._trace_text(trace, layouts))
            for k, layout in enumerate(layouts):
                assert both[k::2] == list(engine._trace_text(trace, (layout,)))
    assert engine._row_count(trace) == len(rows.rows)


@pytest.mark.parametrize("rows_per_write", [1, 2, 512])
def test_a_repeated_round_is_merged_once_per_block(rows_per_write):
    # however many chunks a block's copies span, each layout merges its round
    # once; unrepeated rows merge nothing
    blocks = ((_VARIED_ROUND[:3], 0, 0), (_VARIED_ROUND[3:5], 10**8, 600),
              (_VARIED_ROUND[5:6], 0, 0), (_VARIED_ROUND[6:7], 10**8, 40))
    layouts = (engine._JSON, engine._CHROME)
    merged = []
    merge = engine._merged

    def counting(layout, job, columns):
        merged.append((layout, len(job)))
        return merge(layout, job, columns)

    with mock.patch.object(engine, "_WRITE_ROWS", rows_per_write), \
            mock.patch.object(engine, "_merged", counting):
        copy_chunks = sum(1 for _, copied in engine._chunks(blocks) if copied)
        list(engine._trace_text(Trace._of(blocks, None), layouts))
    assert copy_chunks > 2
    assert merged == [(engine._JSON, 2), (engine._CHROME, 2),
                      (engine._JSON, 1), (engine._CHROME, 1)]


def test_fraction_table():
    assert _FRACTIONS[0] == ".0"
    assert len(_FRACTIONS) == 1000


def test_micros_is_repr_of_the_float_microseconds():
    for n in range(10**6):
        assert _micros(n) == repr(n / 1000.0), n
    edges = [10**k + d for k in range(17) for d in (-1, 0, 1)]
    edges += [2**53 - 1, 2**53, 2**53 + 1, -1, -999, -1000, -1001, -(10**15), -(2**53 + 1)]
    for n in edges:
        assert _micros(n) == repr(n / 1000.0), n
