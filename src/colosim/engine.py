"""Span traces: the record of a schedule, its legality check and exporters.

A trace is the list of spans a schedule produced, one per forward, backward
or sync phase of a job iteration, each on the lane (GPU or NIC) that ran it.
Everything is integer nanoseconds; a run is a pure function of its input, so
repeated runs produce byte-identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Phase",
    "Span",
    "Trace",
    "validate_trace",
    "trace_to_json",
    "trace_to_chrome_json",
]


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
    spans: tuple[Span, ...]
    makespan: int


def validate_trace(trace: Trace) -> list[str]:
    """Check trace legality; returns violation messages (empty means legal).

    Checked: span sanity, per-lane non-overlap, per-job phase ordering
    forward_t < backward_t < sync_t < forward_{t+1}, a sync present for every
    iteration (the final one included), and makespan consistency.
    """
    violations: list[str] = []

    for s in trace.spans:
        if s.start < 0 or s.end < s.start:
            violations.append(
                f"span {s.lane_id}/{s.job_id}/{s.phase.value}/t{s.iteration}: "
                f"bad interval [{s.start}, {s.end}]")

    by_lane: dict[str, list[Span]] = {}
    for s in trace.spans:
        by_lane.setdefault(s.lane_id, []).append(s)
    for lane_id, spans in by_lane.items():
        ordered = sorted(spans, key=lambda s: (s.start, s.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                violations.append(
                    f"lane {lane_id}: {prev.job_id}/t{prev.iteration} "
                    f"[{prev.start},{prev.end}] overlaps {cur.job_id}/t{cur.iteration} "
                    f"[{cur.start},{cur.end}]")

    # Keyed by Phase._value_, the plain attribute behind Enum.value: hashing the
    # enum or reading .value runs Python-level code, once per span.
    by_job: dict[str, dict[int, dict[str, Span]]] = {}
    for s in trace.spans:
        phases = by_job.setdefault(s.job_id, {}).setdefault(s.iteration, {})
        phase = s.phase._value_
        if phase in phases:
            violations.append(
                f"job {s.job_id}: duplicate {phase} span for iteration {s.iteration}")
        else:
            phases[phase] = s

    for job_id, iters in by_job.items():
        prev_sync: Span | None = None
        for t in sorted(iters):
            phases = iters[t]
            fwd = phases.get("forward")
            bwd = phases.get("backward")
            syn = phases.get("sync")
            if fwd is None:
                violations.append(f"job {job_id}: missing forward span for iteration {t}")
            if bwd is None:
                violations.append(f"job {job_id}: missing backward span for iteration {t}")
            if syn is None:
                violations.append(f"job {job_id}: missing sync span for iteration {t}")
            if fwd and bwd and bwd.start < fwd.end:
                violations.append(f"job {job_id}: backward precedes forward at iteration {t}")
            if bwd and syn and syn.start < bwd.end:
                violations.append(f"job {job_id}: sync starts before backward ends at iteration {t}")
            if prev_sync and fwd and fwd.start < prev_sync.end:
                violations.append(
                    f"job {job_id}: iteration {t} compute starts before "
                    f"iteration {prev_sync.iteration} sync completes")
            prev_sync = syn

    expected = max((s.end for s in trace.spans), default=0)
    if trace.makespan != expected:
        violations.append(f"makespan {trace.makespan} != max span end {expected}")

    return violations


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


class _Escaped(dict):
    """id -> its JSON string body without the quotes, escaped once per id."""

    def __missing__(self, key: str) -> str:
        body = self[key] = json.dumps(key)[1:-1]
        return body


def trace_to_json(trace: Trace) -> str:
    """Serialize the trace as a JSON array of span records."""
    if not trace.spans:
        return "[]\n"
    esc = _Escaped()
    records = [
        _SPAN_RECORD % (esc[s.lane_id], esc[s.job_id], s.phase._value_,
                        s.iteration, s.start, s.end)
        for s in trace.spans
    ]
    return "[\n" + ",\n".join(records) + "\n]\n"


def trace_to_chrome_json(trace: Trace) -> str:
    """Render the trace in the Chrome trace-event JSON format.

    Complete ("X") events with microsecond timestamps, one viewer row (tid)
    per lane, loadable in chrome://tracing or Perfetto.
    """
    if not trace.spans:
        return '{\n  "traceEvents": [],\n  "displayTimeUnit": "ms"\n}\n'
    esc = _Escaped()
    lane_ids = sorted({s.lane_id for s in trace.spans})
    tid = {lane_id: i for i, lane_id in enumerate(lane_ids)}
    events = [_CHROME_LANE % (i, esc[lane_id]) for i, lane_id in enumerate(lane_ids)]
    # %r of a float is float.__repr__, which is what json writes for it
    events += [
        _CHROME_SPAN % (esc[s.job_id], s.phase._value_, s.iteration,
                        s.start / 1000.0, (s.end - s.start) / 1000.0,
                        tid[s.lane_id], esc[s.job_id], s.iteration)
        for s in trace.spans
    ]
    return ('{\n  "traceEvents": [\n' + ",\n".join(events)
            + '\n  ],\n  "displayTimeUnit": "ms"\n}\n')
