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
# indent, ``json`` falls back to its pure-Python encoder, so formatting each
# record directly is several times faster and builds no per-span dict.
_SPAN_RECORD = """\
  {
    "lane_id": "%s",
    "job_id": "%s",
    "phase": "%s",
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
      "name": "%s %s t%d",
      "ph": "X",
      "ts": %r,
      "dur": %r,
      "pid": 0,
      "tid": %d,
      "args": {
        "job": "%s",
        "iteration": %d
      }
    }"""


def trace_to_json(trace: Trace) -> str:
    """Serialize the trace as a JSON array of span records, three per row."""
    if not trace.rows:
        return "[]\n"
    # job id -> its JSON string body without the quotes, escaped once per id
    esc = {job_id: json.dumps(job_id)[1:-1] for job_id in {row[0] for row in trace.rows}}
    records: list[str] = []
    for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows:
        job = esc[job_id]
        records += (
            _SPAN_RECORD % (GPU_LANE_ID, job, "forward", t, start, backward_start),
            _SPAN_RECORD % (GPU_LANE_ID, job, "backward", t, backward_start, compute_end),
            _SPAN_RECORD % (NIC_LANE_ID, job, "sync", t, sync_start, sync_end),
        )
    return "[\n" + ",\n".join(records) + "\n]\n"


def trace_to_chrome_json(trace: Trace) -> str:
    """Render the trace in the Chrome trace-event JSON format.

    Complete ("X") events with microsecond timestamps, one viewer row (tid)
    per lane, loadable in chrome://tracing or Perfetto.
    """
    if not trace.rows:
        return '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}\n'
    esc = {job_id: json.dumps(job_id)[1:-1] for job_id in {row[0] for row in trace.rows}}
    # tids number the lanes in id order: gpu0 is 0, nic0 is 1
    events = [_CHROME_LANE % (0, GPU_LANE_ID), _CHROME_LANE % (1, NIC_LANE_ID)]
    # %r of a float is float.__repr__, which is what json writes for it
    for job_id, t, start, backward_start, compute_end, sync_start, sync_end in trace.rows:
        job = esc[job_id]
        events += (
            _CHROME_SPAN % (job, "forward", t, start / 1000.0,
                            (backward_start - start) / 1000.0, 0, job, t),
            _CHROME_SPAN % (job, "backward", t, backward_start / 1000.0,
                            (compute_end - backward_start) / 1000.0, 0, job, t),
            _CHROME_SPAN % (job, "sync", t, sync_start / 1000.0,
                            (sync_end - sync_start) / 1000.0, 1, job, t),
        )
    return ('{\n  "traceEvents": [\n' + ",\n".join(events)
            + '\n  ],\n  "displayTimeUnit": "ms"\n}\n')
