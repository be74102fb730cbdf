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
from dataclasses import dataclass
from enum import Enum

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
    rows: tuple[Row, ...]

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
# indent, ``json`` falls back to its pure-Python encoder, so formatting the
# records directly is several times faster and builds no per-span dict.
# ``_row`` joins a format's three span records into one row template with the
# lane, tid and phase filled in, and ``_job_templates`` bakes in each job's
# escaped id, so each row is a single ``%`` over its numbers.  In the Chrome
# format ``ts`` is ``%r`` of a float, which is float.__repr__, what json writes
# for it; ``dur`` is the same text taken from a per-call ``_Durations`` cache,
# since a job's phases last the same in every row of a valid trace.
_SPAN_RECORD = """\
  {
    "lane_id": "{lane}",
    "job_id": "{job}",
    "phase": "{phase}",
    "iteration": %d,
    "start_ns": %d,
    "end_ns": %d
  }"""

_CHROME_LANE = """\
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 0,
      "tid": %d,
      "args": {
        "name": "%s"
      }
    }"""

_CHROME_SPAN = """\
    {
      "name": "{job} {phase} t%d",
      "ph": "X",
      "ts": %r,
      "dur": %s,
      "pid": 0,
      "tid": {tid},
      "args": {
        "job": "{job}",
        "iteration": %d
      }
    }"""


def _row(span: str) -> str:
    """A row's forward, backward and sync records; ``{job}`` is left to fill."""
    return ",\n".join(
        span.replace("{lane}", lane).replace("{tid}", tid).replace("{phase}", phase)
        for lane, tid, phase in ((GPU_LANE_ID, "0", "forward"),
                                 (GPU_LANE_ID, "0", "backward"),
                                 (NIC_LANE_ID, "1", "sync"))
    )


_JSON_ROW = _row(_SPAN_RECORD)
_CHROME_ROW = _row(_CHROME_SPAN)
# tids number the lanes in id order for the Chrome viewer: gpu0 is 0, nic0 is 1
_CHROME_HEAD = ('{\n  "traceEvents": [\n' + _CHROME_LANE % (0, GPU_LANE_ID) + ",\n"
                + _CHROME_LANE % (1, NIC_LANE_ID) + ",\n")


def _job_templates(rows: tuple[Row, ...], row: str) -> dict[str, str]:
    """Job id -> ``row`` with the id's JSON string body in place of ``{job}``.

    Each id is escaped once, as ``json.dumps`` writes it, and its ``%`` signs
    are doubled so the template still formats only the row's numbers.
    """
    return {job_id: row.replace("{job}", json.dumps(job_id)[1:-1].replace("%", "%%"))
            for job_id in {r[0] for r in rows}}


class _Durations(dict):
    """Nanoseconds -> ``repr(n / 1000.0)``, made on first use."""

    def __missing__(self, n: int) -> str:
        text = self[n] = repr(n / 1000.0)
        return text


def _enclose(records: list[str], head: str, tail: str) -> str:
    """``head + ",\\n".join(records) + tail``, built as one string.

    Wrapping the first and last record rather than the joined document saves
    a second copy of the whole document at the peak.
    """
    records[0] = head + records[0]
    records[-1] += tail
    return ",\n".join(records)


def trace_to_json(trace: Trace) -> str:
    """Serialize the trace as a JSON array of span records, three per row."""
    if not trace.rows:
        return "[]\n"
    row = _job_templates(trace.rows, _JSON_ROW)
    records = [
        row[job_id] % (t, start, backward_start, t, backward_start, compute_end,
                       t, sync_start, sync_end)
        for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows
    ]
    return _enclose(records, "[\n", "\n]\n")


def trace_to_chrome_json(trace: Trace) -> str:
    """Render the trace in the Chrome trace-event JSON format.

    Complete ("X") events with microsecond timestamps, one viewer row (tid)
    per lane, loadable in chrome://tracing or Perfetto.
    """
    if not trace.rows:
        return '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}\n'
    row = _job_templates(trace.rows, _CHROME_ROW)
    dur = _Durations()
    events = [
        row[job_id] % (t, start / 1000.0, dur[backward_start - start], t,
                       t, backward_start / 1000.0, dur[compute_end - backward_start], t,
                       t, sync_start / 1000.0, dur[sync_end - sync_start], t)
        for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows
    ]
    return _enclose(events, _CHROME_HEAD, '\n  ],\n  "displayTimeUnit": "ms"\n}\n')
