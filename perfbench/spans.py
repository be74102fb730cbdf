"""Layer spans recorded from outside the program.

Each layer's public function is replaced, for the traced run only, by a
wrapper in every namespace its callers look it up from (for example
``colosim.cli.simulate`` and ``colosim.simulate``).  A wrapper records
name, start, end and parent of the call, plus per-call extras, and keeps the
record in memory until the run ends.  A function that no longer exists is
skipped and its metrics are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spans_out(result) -> dict:
    return {"spans": len(result.spans)}


def _serialized(result) -> dict:
    return {"bytes": len(result)}  # json.dumps output is ASCII


def _sgd_isolated(result) -> dict:
    return {"sgd_steps": len(result)}


def _sgd_crossover(result) -> dict:
    return {"sgd_steps": sum(len(t) for t in result)}


def _cli_status(result) -> dict:
    return {"errors": int(result != 0)}


# span name -> (namespaces where callers look the function up, extras hook,
#               whether to record the rise of the RSS high-water mark)
LAYERS = {
    "cli.main": (("colosim.cli:main",), _cli_status, False),
    "scenario.load_config": (("colosim.cli:load_config", "colosim:load_config"),
                             None, False),
    "scheduler.simulate": (("colosim.cli:simulate", "colosim:simulate"), None, False),
    "scheduler.schedule_crossover": (("colosim.scheduler:schedule_crossover",
                                      "colosim.cli:schedule_crossover"),
                                     _spans_out, False),
    "scheduler.schedule_sequential": (("colosim.scheduler:schedule_sequential",
                                       "colosim.cli:schedule_sequential"),
                                      _spans_out, False),
    "comm.comm_time": (("colosim.scheduler:comm_time",), None, False),
    "workload.fuse_gradients": (("colosim.scheduler:fuse_gradients",), None, False),
    "engine.validate_trace": (("colosim.metrics:validate_trace",), None, False),
    "engine.trace_to_json": (("colosim.cli:trace_to_json",), _serialized, True),
    "engine.trace_to_chrome_json": (("colosim.cli:trace_to_chrome_json",),
                                    _serialized, True),
    "metrics.measure": (("colosim.cli:measure", "colosim:measure"), None, False),
    "metrics.compare": (("colosim:compare",), None, False),
    "metrics.report": (("colosim.cli:report", "colosim:report"), None, False),
    "equivalence.check_neutrality": (("colosim.cli:check_neutrality",), None, False),
    "equivalence.run_isolated": (("colosim.equivalence:run_isolated",),
                                 _sgd_isolated, False),
    "equivalence.run_crossover": (("colosim.equivalence:run_crossover",),
                                  _sgd_crossover, False),
}


class Recorder:
    """In-memory span store: [name, start, end, parent index, extras]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        return self._record(name, fn, args, kwargs, None, False)

    def _record(self, name, fn, args, kwargs, extras, rss):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        rss_before = _rss_mb() if rss else 0.0
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            record[4]["errors"] = 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if rss:
            record[4]["rss_rise_mb"] = _rss_mb() - rss_before
        if extras is not None:
            record[4].update(extras(result))
        return result

    def install(self) -> None:
        for name, (targets, extras, rss) in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self.present.add(name)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, extras, rss))

    def _wrapper(self, name, fn, extras, rss):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs, extras, rss)
        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed extras.

        Self time is a span's duration minus the time its child spans cover.
        Maxima are kept for 'rss_rise_mb'; other extras are summed.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, extras), inner in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
            for key, value in extras.items():
                if key == "rss_rise_mb":
                    agg[key] = max(agg.get(key, 0.0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return out
