"""Traces: the record of a schedule and its exporters.

A trace holds one row per job-iteration, in dispatch order (the order the
GPU ran the computes): ``(job_id, iteration, start, backward_start,
compute_end, sync_start, sync_end)``.  ``_SPANS`` lists the spans a row
holds, forward and backward on the GPU lane and the gradient sync on the NIC
lane; ``Trace.spans`` and both exports expand each row into them.  A
simulated trace keeps its rows as blocks, each a round and a count of
shifted copies of it, and builds the rows on first read; both trace files
are laid out from the blocks without them.
Everything is integer nanoseconds; a run is a pure function of its input,
so repeated runs produce byte-identical traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidTraceError, _a

if TYPE_CHECKING:
    from .scheduler import SchedulePlan

__all__ = ["Phase", "Span", "Trace", "trace_to_json", "trace_to_chrome_json"]

GPU_LANE_ID = "gpu0"
NIC_LANE_ID = "nic0"

# Internal integers are kept within signed 64-bit range so traces and
# timestamps stay portable: plan times and scenario numbers lie below this.
_INT_LIMIT = 2**63

Row = tuple[str, int, int, int, int, int, int]
_NAMES = ("job_id", "iteration", "start", "backward_start", "compute_end", "sync_start",
          "sync_end")
_TYPES = (str, int, int, int, int, int, int)


class Phase(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    SYNC = "sync"


@dataclass(frozen=True)
class Span:
    lane_id: str
    job_id: str
    phase: Phase
    iteration: int
    start: int
    end: int


# Each span a row holds, in the order the trace files write them: its phase,
# its lane, and the indices of the row fields it runs from and to.
_SPANS = ((Phase.FORWARD, GPU_LANE_ID, 2, 3),
          (Phase.BACKWARD, GPU_LANE_ID, 3, 4),
          (Phase.SYNC, NIC_LANE_ID, 5, 6))
# each lane's Chrome tid: the lanes numbered in id order, for the viewer
_TIDS = {lane: str(tid) for tid, lane in enumerate(sorted({lane for _, lane, _, _ in _SPANS}))}

Block = tuple[tuple[Row, ...], int, int]


def _misshapen(k: int, row: object) -> str | None:
    """The message for row ``k`` of a trace unless it is a tuple of 7 fields."""
    if isinstance(row, tuple) and len(row) == 7:
        return None
    shape = f"a tuple of {len(row)} fields" if isinstance(row, tuple) else _a(row)
    return f"row {k}: {shape}, expected a tuple of 7 fields"


def _gap_runs(trace: Trace, plan: SchedulePlan) -> dict[str, tuple[list[int], list[int]]]:
    """Each plan job's compute-start gaps as runs of equal gaps, read from the blocks.

    A job's runs are two flat lists, ``(gaps, counts)``: run k is
    ``counts[k]`` gaps of ``gaps[k]`` in a row.  A row of a block gives one
    gap, from the job's previous start; a block's copies give its shift once
    per repeat for each of its jobs, just after that job's row (``_run``
    writes at most one row per job in a block with copies; see ``_chunks``).
    No rows are built.
    """
    runs: dict[str, tuple[list[int], list[int]]] = {j.job_id: ([], []) for j in plan.jobs}
    last: dict[str, int] = {}
    for rows, shift, repeats in trace.blocks:
        if repeats:
            for row in rows:
                job_id, start = row[0], row[2]
                gaps, counts = runs[job_id]
                if job_id in last:
                    gaps.append(start - last[job_id])
                    counts.append(1)
                gaps.append(shift)
                counts.append(repeats)
                last[job_id] = start + repeats * shift
        else:
            for row in rows:
                job_id, start = row[0], row[2]
                if job_id in last:
                    gaps, counts = runs[job_id]
                    gaps.append(start - last[job_id])
                    counts.append(1)
                last[job_id] = start
    return runs


@dataclass(frozen=True)
class Trace:
    """A schedule's rows, and the plan that produced them when known.

    ``Trace(rows)`` keeps its rows.  ``Trace._of(blocks, plan)``, which
    ``scheduler.simulate`` calls, keeps ``_run``'s blocks, one per dispatched
    round (see ``_chunks``).  Whichever of ``rows`` and ``blocks`` a trace
    lacks is built on its first read, once; a plain trace is one block with
    no repeats, and ``makespan`` reads only the last block.  ``plan`` is the
    plan ``simulate`` ran, and ``None`` for any other trace, since it is not
    an init field; ``scheduler.validate_trace`` accepts a trace with a plan
    for any equal plan without running the schedule again.  ``plan`` takes
    no part in equality, hashing or repr, which read ``rows``.
    """

    rows: tuple[Row, ...]
    plan: SchedulePlan | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _of(cls, blocks: tuple[Block, ...], plan: SchedulePlan) -> Trace:
        """The trace of ``plan``'s schedule, held as ``blocks``."""
        trace = cls.__new__(cls)
        trace.__dict__.update(blocks=blocks, plan=plan)
        return trace

    def __getattr__(self, name: str):
        # called only for a name the instance and its class lack
        known = self.__dict__
        if name == "rows" and "blocks" in known:
            known[name] = tuple(chain.from_iterable(zip(*c) for c, _ in _chunks(known["blocks"])))
        elif name == "blocks" and "rows" in known:
            known[name] = ((known["rows"], 0, 0),) if known["rows"] else ()
        else:
            raise AttributeError(name)
        return known[name]

    @property
    def makespan(self) -> int:
        """The last row's ``sync_end``, read from the last block; 0 for no rows.

        Raises ``InvalidTraceError`` if that row is not a tuple of 7 fields
        or its ``sync_end`` is not an exact ``int``.
        """
        if not self.blocks:
            return 0
        rows, shift, repeats = self.blocks[-1]
        # only a plain trace, one block, can hold a misshapen row
        k, last = len(rows) - 1, rows[-1]
        shape = _misshapen(k, last)
        if shape:
            raise InvalidTraceError([shape])
        if type(last[6]) is not int:
            raise InvalidTraceError([f"row {k}: sync_end {last[6]!r}, {_a(last[6])}, "
                                     f"expected an int"])
        return last[6] + repeats * shift

    @property
    def spans(self) -> tuple[Span, ...]:
        """Read-only view: each row as its ``_SPANS``, in order."""
        return tuple([Span(lane, row[0], phase, row[1], row[a], row[b])
                      for row in self.rows for phase, lane, a, b in _SPANS])


# Record templates holding the exact bytes ``json.dumps(..., indent=2)`` wrote
# for the dict-per-record documents these formats were defined by.  With an
# indent, ``json`` falls back to its pure-Python encoder, so writing the
# records directly is several times faster and builds no per-span dict.
# ``_pieces`` joins a format's span records, one per ``_SPANS`` entry, into
# one row with the lane, tid and phase filled in and cuts it around each
# slot: ``{job}`` for the escaped job id, ``{dur}`` for a span's length and
# ``{n}`` for any other number.  ``{job}`` and ``{dur}`` slots are fixed:
# every copy of a round gives them the same texts, since a copy moves all of
# a row's times by one shift.  ``{n}`` slots, the iteration and the times,
# vary from copy to copy.
# ``_trace_text`` lays documents out: the head, then about ``_WRITE_ROWS``
# rows at a time (a ``_chunks`` chunk), with the tail in place of the last
# row's ``,\n``.  So no document, and no row list, is held whole.  A chunk
# of unrepeated rows is their pieces with every slot filled, a column of
# rows at a time.  A repeated round is laid out once per block by
# ``_merged``: its fixed texts are filled in and joined with the literal
# text around them, which leaves a row 19 pieces in either format, a text
# before each varying slot and one after the last.  A chunk of copies is
# those pieces once per copy with only the varying slots filled.
# An integer's text is ``repr``, which is ``str`` for an int and cheaper to
# call through ``map``; trace.json makes each time column's texts once per
# chunk.
# In the Chrome format ``ts`` and ``dur`` are float microseconds, whose
# text json wrote as ``repr`` of ``n / 1000.0``.  ``_micros`` builds it from
# integer arithmetic, ``str(n // 1000)`` and a table of the 1000 fraction
# texts.  That is exact for ``0 <= n < 10**15``: ``n`` is exact as a double,
# the quotient is correctly rounded, and the decimal ``n / 1000`` has at most
# 15 significant digits (DBL_DIG), so no other decimal that short rounds to
# the same double and it is ``repr``'s shortest round-trip text, in fixed
# notation since it is below 1e16.  Other values take ``repr`` itself.  The
# bytes are the same either way.  ``_ts`` inlines ``_micros`` for a column of
# times that all lie in that range.
# Rows laid out together make each distinct ``dur`` text once, since a job's
# phases last the same in every row of a valid trace.
_SPAN_RECORD = """\
  {
    "lane_id": "{lane}",
    "job_id": "{job}",
    "phase": "{phase}",
    "iteration": {n},
    "start_ns": {n},
    "end_ns": {n}
  }"""

_CHROME_LANE = """\
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 0,
      "tid": {tid},
      "args": {
        "name": "{lane}"
      }
    }"""

_CHROME_SPAN = """\
    {
      "name": "{job} {phase} t{n}",
      "ph": "X",
      "ts": {n},
      "dur": {dur},
      "pid": 0,
      "tid": {tid},
      "args": {
        "job": "{job}",
        "iteration": {n}
      }
    }"""


def _fill(record: str, lane: str, tid: str, phase: str = "") -> str:
    return record.replace("{lane}", lane).replace("{tid}", tid).replace("{phase}", phase)


def _pieces(span: str) -> list[str]:
    """A row's span records and the ``,\\n`` after them, cut around each slot.

    The lane, tid and phase are filled in.  Every odd item is a slot's
    placeholder: ``{job}``, ``{dur}`` or ``{n}``.
    """
    return re.split(r"(\{job\}|\{dur\}|\{n\})",
                    ",\n".join(_fill(span, lane, _TIDS[lane], phase.value)
                               for phase, lane, _, _ in _SPANS) + ",\n")


# ".0", ".001", ..., ".5", ..., ".999": the text after the point of r / 1000
_FRACTIONS = tuple(repr(r / 1000.0)[1:] for r in range(1000))
# the fast path's bound: see the comment above _SPAN_RECORD
_EXACT_BOUND = 10**15


def _micros(n: int) -> str:
    """``n`` nanoseconds as the text json writes for the float ``n / 1000.0``."""
    if 0 <= n < _EXACT_BOUND:
        return str(n // 1000) + _FRACTIONS[n % 1000]
    return repr(n / 1000.0)


def _ts(ns: Sequence[int]) -> Iterable[str]:
    """The Chrome ``ts`` texts of a column of times: ``_micros`` of each."""
    if 0 <= min(ns) and max(ns) < _EXACT_BOUND:
        return [str(n // 1000) + _FRACTIONS[n % 1000] for n in ns]
    return map(_micros, ns)


def _json_fixed(job: list[str], columns: list) -> Iterator:
    """The texts of a trace.json row's fixed slots, a column each: its id, once a span."""
    return (job for _ in _SPANS)


def _json_varying(t: list[str], columns: list) -> Iterator:
    """The texts of a trace.json row's varying slots, a column each, from its chunk's columns."""
    # each time column's texts, at its row field's index
    text = [None, None] + [list(map(repr, column)) for column in columns[2:]]
    return chain.from_iterable((t, text[a], text[b]) for _, _, a, b in _SPANS)


def _chrome_fixed(job: list[str], columns: list) -> Iterator:
    """The texts of a Chrome row's fixed slots, a column each: per span its id, dur and id."""
    lengths = [list(map(sub, columns[b], columns[a])) for _, _, a, b in _SPANS]
    text = {n: _micros(n) for n in set().union(*lengths)}
    return chain.from_iterable((job, map(text.__getitem__, column), job) for column in lengths)


def _chrome_varying(t: list[str], columns: list) -> Iterator:
    """The texts of a Chrome row's varying slots, a column each, from its chunk's columns."""
    return chain.from_iterable((t, _ts(columns[a]), t) for _, _, a, _ in _SPANS)


class _Layout(NamedTuple):
    """The texts a trace document is made of, and how a row's slots get theirs.

    ``fixed`` and ``varying`` give the texts of a row's fixed and varying
    slots (see the comment above ``_SPAN_RECORD``), a column of rows for
    each slot in order, from the rows' escaped ids or iteration texts and
    their columns.
    """

    empty: str
    head: str
    pieces: list[str]
    fixed: Callable[[list[str], list], Iterator]
    varying: Callable[[list[str], list], Iterator]
    tail: str

    @property
    def fixed_at(self) -> list[int]:
        """The index in ``pieces`` of each fixed slot, a ``{job}`` or ``{dur}``."""
        return [i for i in range(1, len(self.pieces), 2) if self.pieces[i] != "{n}"]

    @property
    def varying_at(self) -> list[int]:
        """The index in ``pieces`` of each varying slot, an ``{n}``."""
        return [i for i in range(1, len(self.pieces), 2) if self.pieces[i] == "{n}"]


_JSON = _Layout("[]\n", "[\n", _pieces(_SPAN_RECORD), _json_fixed, _json_varying, "\n]\n")
_CHROME = _Layout(
    '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}\n',
    '{\n  "traceEvents": [\n'
    + "".join(_fill(_CHROME_LANE, *lane) + ",\n" for lane in _TIDS.items()),
    _pieces(_CHROME_SPAN), _chrome_fixed, _chrome_varying,
    '\n  ],\n  "displayTimeUnit": "ms"\n}\n')

# Marks a cut in a round's text: in no literal piece, escaped id or number text.
_MARK = "\x00"


def _filled(layout: _Layout, pieces: list[str], job: list[str], columns: list) -> list[str]:
    """``pieces`` once per row of ``columns``, whose ids are ``job``, with its fixed slots filled.

    ``pieces`` is ``layout.pieces``, perhaps with items added after them.
    """
    parts = pieces * len(job)
    for i, texts in zip(layout.fixed_at, layout.fixed(job, columns)):
        parts[i::len(pieces)] = texts
    return parts


def _merged(layout: _Layout, job: list[str], columns: list) -> tuple[list, range, int]:
    """A round's pieces with its fixed texts merged into the literal text around them.

    The round's rows are ``columns``, whose ids are ``job``.  Each row is
    ``step`` pieces: a text before each of its varying slots and one after
    the last, with ``None`` in each varying slot.  Returns the pieces, the
    index of each varying slot in a row, and ``step``.
    """
    varying_at = layout.varying_at
    # each varying slot and each row's end cut the joined text
    pieces = layout.pieces + [_MARK]
    for i in varying_at:
        pieces[i] = _MARK
    texts = "".join(_filled(layout, pieces, job, columns)).split(_MARK)
    each = len(varying_at) + 1  # texts per row
    step = 2 * each - 1
    parts = [None] * step * len(job)
    for k in range(each):
        parts[2 * k::step] = texts[k:-1:each]
    return parts, range(1, step, 2), step


def _escaped(job_id: str) -> str:
    """``job_id`` as both trace files write it between its quotes: ``json.dumps``'s escapes."""
    return encode_basestring_ascii(job_id)[1:-1]


# Most job-iterations (trace rows) one scenario's plan may hold.  While
# ``simulate`` writes its traces, a row of a round that is not repeated costs
# about 0.41 KB of memory, its tuple and times (three jobs whose 10 ms syncs
# outlast their computes by 2 ns repeat no round: 423 MB peak at 999,000
# rows), and copies of a repeated round cost none (speedup_band: 18 MB peak
# at 200,000 rows and at 10^6).  On disk a row costs its width in each trace
# file, which _JOB_ID_LIMIT bounds.
MAX_JOB_ITERATIONS = 10**6

# Bytes both trace files of one run may take in all.
_TRACE_BYTES = 2 * 10**9


def _job_id_limit() -> int:
    """The most characters a job_id may take once JSON-escaped.

    A trace row's text in either file is its layout's pieces with an escaped
    id in each ``{job}`` slot and a number's text in each other slot.  Each
    number is an integer in [0, _INT_LIMIT), since the plan bound caps every
    time, and its text (``str``, or a Chrome ``ts`` or ``dur``) is no longer
    than ``str(_INT_LIMIT - 1)``.  With ids this long, both files of a run of
    MAX_JOB_ITERATIONS rows, with their heads and tails, fit _TRACE_BYTES.
    """
    layouts = (_JSON, _CHROME)
    ends = sum(len(layout.head) + len(layout.tail) for layout in layouts)
    number = len(str(_INT_LIMIT - 1))
    row = sum(len("".join(layout.pieces[::2]))
              + number * (len(layout.pieces) // 2 - layout.pieces[1::2].count("{job}"))
              for layout in layouts)
    ids = sum(layout.pieces[1::2].count("{job}") for layout in layouts)
    return ((_TRACE_BYTES - ends) // MAX_JOB_ITERATIONS - row) // ids


_JOB_ID_LIMIT = _job_id_limit()

# Rows per piece of text: 64 to 1024 wrote equally fast, larger pieces slower.
_WRITE_ROWS = 512

Chunk = tuple[list, tuple[Row, ...] | None]


def _row_count(trace: Trace) -> int:
    """How many rows ``trace`` holds, read from its blocks."""
    return sum(len(rows) * (repeats + 1) for rows, _, repeats in trace.blocks)


def _chunks(blocks: tuple[Block, ...]) -> Iterator[Chunk]:
    """The rows ``blocks`` stand for, in order, as chunks of columns.

    A block ``(rows, shift, repeats)`` is its rows followed by ``repeats``
    copies of them; copy ``k`` adds ``k`` to each row's iteration and
    ``k * shift`` to each of its times.  ``Trace.rows`` zips the chunks'
    columns, and the trace files are laid out from them.  A chunk holds
    about ``_WRITE_ROWS`` rows as ``(columns, round)``: one column per row
    field, and the block's ``rows`` if the chunk is copies of them, else
    ``None``.  Unrepeated rows are gathered across blocks and transposed a
    chunk at a time.  A block's copies are built a column at a time from
    its round's columns, whole copies to a chunk; their id column is the
    round's, repeated.  No row is built.  ``_gap_runs``, ``Trace.makespan``
    and ``equivalence._replay_reads`` read blocks in O(blocks) without
    expanding their copies, so a change to what a copy adds (a shift per
    field, say) changes them too.
    """
    run: list[Row] = []  # rows not yet in a chunk
    for rows, shift, repeats in blocks:
        run += rows
        # whole chunks, and before a block's copies the rest as well
        end = len(run) if repeats else len(run) - len(run) % _WRITE_ROWS
        for i in range(0, end, _WRITE_ROWS):
            yield list(zip(*run[i:i + _WRITE_ROWS])), None
        del run[:end]
        if repeats:
            job, t, *times = zip(*rows)
            per_chunk = max(1, _WRITE_ROWS // len(rows))
            for first in range(1, repeats + 1, per_chunk):
                copies = range(first, min(first + per_chunk, repeats + 1))
                shifts = [k * shift for k in copies]
                yield ([job * len(copies), [i + k for k in copies for i in t],
                        *([x + s for s in shifts for x in column] for column in times)], rows)
    if run:
        yield list(zip(*run)), None


def _trace_text(trace: Trace, layouts: tuple[_Layout, ...]) -> Iterator[str]:
    """``trace``'s document in each of ``layouts``, in pieces of about ``_WRITE_ROWS`` rows.

    The pieces come in turn, one of each layout's document: the empty
    documents, or the heads and then each chunk of rows (see ``_chunks``)
    in every layout, with the tail in place of the last row's ``,\\n``.
    A block's round is merged once (see ``_merged``) for all its chunks.
    """
    left = _row_count(trace)
    if not left:
        yield from (layout.empty for layout in layouts)
        return
    ids = {job_id: _escaped(job_id)
           for job_id in {row[0] for rows, _, _ in trace.blocks for row in rows}}
    yield from (layout.head for layout in layouts)
    merged, rounds = None, []
    for columns, round in _chunks(trace.blocks):
        t = list(map(repr, columns[1]))
        left -= len(t)
        if round is None:
            job = list(map(ids.__getitem__, columns[0]))
        elif round is not merged:
            merged, fields = round, list(zip(*round))
            job = list(map(ids.__getitem__, fields[0]))
            rounds = [_merged(layout, job, fields) for layout in layouts]
        for k, layout in enumerate(layouts):
            if round is None:  # rows of no repeated round: one copy, nothing merged
                parts, varying_at, step = (_filled(layout, layout.pieces, job, columns),
                                           layout.varying_at, len(layout.pieces))
            else:
                parts, varying_at, step = rounds[k]
                parts = parts * (len(t) // len(round))
            for i, texts in zip(varying_at, layout.varying(t, columns)):
                parts[i::step] = texts
            if not left:
                parts[-1] = parts[-1][:-2] + layout.tail
            yield "".join(parts)


def trace_to_json(trace: Trace) -> str:
    """Serialize the trace as a JSON array of span records, a row's ``_SPANS`` each."""
    return "".join(_trace_text(trace, (_JSON,)))


def trace_to_chrome_json(trace: Trace) -> str:
    """Render the trace in the Chrome trace-event JSON format.

    Complete ("X") events with microsecond timestamps, one viewer row (tid)
    per lane, loadable in chrome://tracing or Perfetto.
    """
    return "".join(_trace_text(trace, (_CHROME,)))
