"""Traces: the record of a schedule and its exporters.

A trace holds one row per job-iteration, in dispatch order (the order the
GPU ran the computes): ``(job_id, iteration, start, backward_start,
compute_end, sync_start, sync_end)``.  Forward and backward run on the GPU
lane, the gradient sync on the NIC lane; exports expand each row into those
three span records.  Everything is integer nanoseconds; a run is a pure
function of its input, so repeated runs produce byte-identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .scheduler import SchedulePlan

__all__ = [
    "GPU_LANE_ID",
    "NIC_LANE_ID",
    "Phase",
    "Span",
    "Trace",
    "trace_to_json",
    "trace_to_chrome_json",
]

GPU_LANE_ID = "gpu0"
NIC_LANE_ID = "nic0"

Row = tuple[str, int, int, int, int, int, int]


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


@dataclass(frozen=True)
class Trace:
    """A schedule's rows, plus the plan that produced them when that is known.

    ``plan`` is the plan ``scheduler.simulate`` ran to build this trace, and
    ``None`` for any other trace.  ``scheduler.validate_trace`` accepts a
    trace with a plan for any equal plan without running the schedule again.
    ``plan`` is not an init field, so ``Trace(rows)`` cannot set it and
    ``dataclasses.replace`` does not copy it; it takes no part in equality
    or hashing.
    """

    rows: tuple[Row, ...]
    plan: SchedulePlan | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def makespan(self) -> int:
        """The last row's ``sync_end``; 0 for no rows."""
        return self.rows[-1][6] if self.rows else 0

    @property
    def spans(self) -> tuple[Span, ...]:
        """Read-only view: each row as its forward, backward and sync span."""
        spans: list[Span] = []
        for job_id, t, start, backward_start, compute_end, sync_start, sync_end in self.rows:
            spans += (
                Span(GPU_LANE_ID, job_id, Phase.FORWARD, t, start, backward_start),
                Span(GPU_LANE_ID, job_id, Phase.BACKWARD, t, backward_start, compute_end),
                Span(NIC_LANE_ID, job_id, Phase.SYNC, t, sync_start, sync_end),
            )
        return tuple(spans)


# Record templates holding the exact bytes ``json.dumps(..., indent=2)`` wrote
# for the dict-per-record documents these formats were defined by.  With an
# indent, ``json`` falls back to its pure-Python encoder, so writing the
# records directly is several times faster and builds no per-span dict.
# ``_pieces`` joins a format's three span records into one row with the lane,
# tid and phase filled in and cuts it at each ``{n}``, where a number goes;
# ``_job_pieces`` then bakes each job's escaped id into the pieces.  A
# serializer lays the whole document out as one flat list, head, then each
# row's pieces with its numbers' texts between them, then tail, and joins it
# once.  In the Chrome format ``ts`` is ``repr`` of a float, what json writes
# for it; ``dur`` is the same text taken from a per-call ``_Durations``
# cache, since a job's phases last the same in every row of a valid trace.
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
      "dur": {n},
      "pid": 0,
      "tid": {tid},
      "args": {
        "job": "{job}",
        "iteration": {n}
      }
    }"""

# tids number the lanes in id order for the Chrome viewer: gpu0 is 0, nic0 is 1
_SPAN_LANES = ((GPU_LANE_ID, "0", "forward"), (GPU_LANE_ID, "0", "backward"),
               (NIC_LANE_ID, "1", "sync"))


def _fill(record: str, lane: str, tid: str, phase: str = "") -> str:
    return record.replace("{lane}", lane).replace("{tid}", tid).replace("{phase}", phase)


def _pieces(span: str) -> list[str]:
    """A row's three span records and the ``,\\n`` after them, cut at each ``{n}``.

    The lane, tid and phase are filled in; ``{job}`` is left to fill.
    """
    return (",\n".join(_fill(span, *lane) for lane in _SPAN_LANES) + ",\n").split("{n}")


_JSON_PIECES = _pieces(_SPAN_RECORD)
_CHROME_PIECES = _pieces(_CHROME_SPAN)
_CHROME_HEAD = ('{\n  "traceEvents": [\n' + _fill(_CHROME_LANE, GPU_LANE_ID, "0") + ",\n"
                + _fill(_CHROME_LANE, NIC_LANE_ID, "1") + ",\n")


def _job_pieces(rows: tuple[Row, ...], pieces: list[str]) -> dict[str, tuple[str, ...]]:
    """Job id -> ``pieces`` with the id's JSON string body in place of ``{job}``.

    The pieces are cut before the id goes in, so an id's text is never read
    as a place for a number.
    """
    ids = {job_id: json.dumps(job_id)[1:-1] for job_id in {r[0] for r in rows}}
    return {job_id: tuple(p.replace("{job}", text) for p in pieces)
            for job_id, text in ids.items()}


def _join(parts: list[str], tail: str) -> str:
    """The document: ``parts`` with the last row's ``,\\n`` replaced by ``tail``."""
    parts[-1] = parts[-1][:-2] + tail
    return "".join(parts)


class _Durations(dict):
    """Nanoseconds -> ``repr(n / 1000.0)``, made on first use."""

    def __missing__(self, n: int) -> str:
        text = self[n] = repr(n / 1000.0)
        return text


def trace_to_json(trace: Trace) -> str:
    """Serialize the trace as a JSON array of span records, three per row."""
    if not trace.rows:
        return "[]\n"
    pieces = _job_pieces(trace.rows, _JSON_PIECES)
    parts = ["[\n"]
    for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows:
        p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = pieces[job_id]
        t, b = str(t), str(backward_start)
        parts += (p0, t, p1, str(start), p2, b,
                  p3, t, p4, b, p5, str(compute_end),
                  p6, t, p7, str(sync_start), p8, str(sync_end), p9)
    return _join(parts, "\n]\n")


def trace_to_chrome_json(trace: Trace) -> str:
    """Render the trace in the Chrome trace-event JSON format.

    Complete ("X") events with microsecond timestamps, one viewer row (tid)
    per lane, loadable in chrome://tracing or Perfetto.
    """
    if not trace.rows:
        return '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}\n'
    pieces = _job_pieces(trace.rows, _CHROME_PIECES)
    dur = _Durations()
    parts = [_CHROME_HEAD]
    for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows:
        p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12 = pieces[job_id]
        t = str(t)
        parts += (p0, t, p1, repr(start / 1000.0), p2, dur[backward_start - start], p3, t,
                  p4, t, p5, repr(backward_start / 1000.0), p6,
                  dur[compute_end - backward_start], p7, t,
                  p8, t, p9, repr(sync_start / 1000.0), p10, dur[sync_end - sync_start],
                  p11, t, p12)
    return _join(parts, '\n  ],\n  "displayTimeUnit": "ms"\n}\n')
