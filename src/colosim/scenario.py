"""Scenario configs: JSON files with human-scale units, validated at load.

Config fields carry unit suffixes (forward_ms, grad_mb, bandwidth_gbps,
latency_us) and are converted exactly once into the internal integer units
(nanoseconds, bytes, bytes/s).  Conversion goes through exact rational
arithmetic on the decimal literal, so a value either lands on a whole
internal unit or is rejected -- there is no silent rounding.  Divisors:
ms*1e6 -> ns, MB*1e6 -> bytes, us*1e3 -> ns, Gbps*1e9/8 -> bytes/s.
A key outside the schema is rejected too, so a misspelt optional field
cannot silently take its default; only ``RETIRED_KEYS`` are let through.
So is a key repeated within one object, which JSON would otherwise resolve
silently to its last value.  Errors quote a value only in shortened form.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .comm import Architecture, ClusterSpec
from .errors import ConfigError
from .scheduler import Policy, SchedulePlan
from .workload import JobProfile, fixture_names, fixture_profile

__all__ = ["Scenario", "load_config", "scaled_int", "MAX_JOB_ITERATIONS"]

# Internal integers are kept within signed 64-bit range so traces and
# timestamps stay portable; larger values are rejected at load time.
_INT_LIMIT = 2**63

# Most job-iterations (trace rows) one plan may hold: a Chrome export peaks
# at about 1.7 KB of memory per job-iteration, so this keeps a run under 2 GB.
MAX_JOB_ITERATIONS = 10**6

# The keys each part of a document may carry; any other key is a ConfigError.
_TOP_KEYS = frozenset({"name", "policy", "cluster", "jobs"})
_CLUSTER_KEYS = frozenset({"workers", "bandwidth_gbps", "latency_us", "architecture"})
_INLINE_JOB_KEYS = frozenset({"job_id", "forward_ms", "backward_ms", "grad_mb",
                              "iterations"})
_PROFILE_JOB_KEYS = frozenset({"job_id", "profile", "iterations"})

# Keys no cost reads any more.  The cluster and inline jobs still accept and
# ignore them, because older scenario files and the benchmark's plan
# generator (perfbench/gen.py) write them.
RETIRED_KEYS = frozenset({"tensor_count", "gpus_per_worker", "ps_servers"})

# Quotes a document value in an error message: long strings, numbers and
# containers are cut short, and nesting is not followed.
_brief = reprlib.Repr()
_brief.maxlevel, _brief.maxstring, _brief.maxlong, _brief.maxother = 2, 60, 40, 40


@dataclass(frozen=True)
class Scenario:
    """A fully validated, unit-normalized simulation setup."""

    name: str
    jobs: tuple[JobProfile, ...]
    cluster: ClusterSpec
    policy: Policy

    def plan(self, iterations: int | None = None) -> SchedulePlan:
        """Build the schedule plan; ``iterations`` replaces every job's budget."""
        jobs = self.jobs
        if iterations is not None:
            if iterations < 1:
                raise ConfigError(f"iterations (--iters) must be >= 1, got {iterations}")
            jobs = tuple(replace(j, iterations=iterations) for j in jobs)
        total = sum(j.iterations for j in jobs)
        if total > MAX_JOB_ITERATIONS:
            raise ConfigError(
                f"iterations: {total} job-iterations in all exceed the limit of "
                f"{MAX_JOB_ITERATIONS} (lower iterations or --iters)")
        return SchedulePlan(policy=self.policy, jobs=jobs, cluster=self.cluster)


def scaled_int(value, num: int, den: int, field: str, minimum: int) -> int:
    """Convert a config number to internal integer units, exactly or not at all.

    ``minimum`` is 0 for a field that may be zero and 1 for one that must be
    positive; a whole number of units is >= 1 exactly when it is > 0.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {_brief.repr(value)}")
    try:
        exact = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{field}: {value!r} is not a finite number") from None
    scaled = exact * num / den
    if scaled.denominator != 1:
        raise ConfigError(
            f"{field}: {_brief.repr(value)} does not land on a whole internal unit "
            f"(scale {num}/{den})")
    n = int(scaled)
    if not -_INT_LIMIT < n < _INT_LIMIT:
        raise ConfigError(
            f"{field}: {_brief.repr(value)} overflows the internal integer range")
    if n < minimum:
        raise ConfigError(f"{field}: must be {'> 0' if minimum else '>= 0'}")
    return n


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return obj[key]


def _unique_keys(pairs: list) -> dict:
    """``json.loads`` object hook: a key given twice in one object is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {_brief.repr(key)}")
        obj[key] = value
    return obj


def _reject_unknown(obj: dict, allowed: frozenset, where: str | None,
                    retired: frozenset = frozenset()) -> None:
    for key in obj:
        if key not in allowed and key not in retired:
            path = f"{where}.{key}" if where else str(key)
            raise ConfigError(
                f"{path}: unknown key (allowed: {', '.join(sorted(allowed))})")


def _count_field(obj: dict, key: str, where: str) -> int:
    """A required integer field that must be >= 1."""
    v = _require(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {_brief.repr(v)}")
    if v < 1:
        raise ConfigError(f"{where}.{key}: must be >= 1")
    if v >= _INT_LIMIT:
        raise ConfigError(
            f"{where}.{key}: {_brief.repr(v)} overflows the internal integer range")
    return v


def _enum_field(enum, raw, field: str):
    """The member of ``enum`` whose value is the string ``raw``."""
    members = {m.value: m for m in enum}
    if not isinstance(raw, str) or raw not in members:
        raise ConfigError(f"{field}: unknown value {_brief.repr(raw)} "
                          f"(allowed: {', '.join(members)})")
    return members[raw]


def _text_field(raw, field: str) -> str:
    """A non-empty string that can be printed as UTF-8."""
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"{field}: expected a non-empty string")
    try:
        raw.encode()
    except UnicodeEncodeError:
        raise ConfigError(f"{field}: {_brief.repr(raw)} contains a lone surrogate") from None
    return raw


def _parse_cluster(obj, where: str = "cluster") -> ClusterSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    _reject_unknown(obj, _CLUSTER_KEYS, where, RETIRED_KEYS)
    arch = _enum_field(Architecture, _require(obj, "architecture", where),
                       f"{where}.architecture")
    bandwidth = scaled_int(_require(obj, "bandwidth_gbps", where),
                           10**9, 8, f"{where}.bandwidth_gbps", 1)
    latency = scaled_int(obj.get("latency_us", 0), 10**3, 1, f"{where}.latency_us", 0)
    return ClusterSpec(
        workers=_count_field(obj, "workers", where),
        bandwidth_bytes_per_sec=bandwidth,
        latency_per_message=latency,
        architecture=arch,
    )


def _parse_job(obj, index: int) -> JobProfile:
    where = f"jobs[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if "profile" in obj:
        _reject_unknown(obj, _PROFILE_JOB_KEYS, where)
    else:
        _reject_unknown(obj, _INLINE_JOB_KEYS, where, RETIRED_KEYS)
    job_id = _text_field(_require(obj, "job_id", where), f"{where}.job_id")

    if "profile" in obj:
        name = obj["profile"]
        if not isinstance(name, str) or name not in fixture_names():
            raise ConfigError(
                f"{where}.profile: unknown profile {_brief.repr(name)} "
                f"(available: {', '.join(fixture_names())})")
        iterations = None
        if "iterations" in obj:
            iterations = _count_field(obj, "iterations", where)
        return fixture_profile(name, job_id=job_id, iterations=iterations)

    iterations = _count_field(obj, "iterations", where)
    grad_bytes = scaled_int(_require(obj, "grad_mb", where), 10**6, 1,
                            f"{where}.grad_mb", 0)
    forward = scaled_int(_require(obj, "forward_ms", where), 10**6, 1,
                         f"{where}.forward_ms", 0)
    backward = scaled_int(_require(obj, "backward_ms", where), 10**6, 1,
                          f"{where}.backward_ms", 0)
    if forward + backward <= 0:
        raise ConfigError(f"{where}: forward_ms + backward_ms must be > 0")
    return JobProfile(
        job_id=job_id,
        forward_time=forward,
        backward_time=backward,
        grad_bytes=grad_bytes,
        iterations=iterations,
    )


def parse_scenario(doc, origin: str = "<config>") -> Scenario:
    """Validate a parsed JSON document into a Scenario."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{origin}: top level must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, None)
    name = _text_field(_require(doc, "name", origin), "name")
    policy = _enum_field(Policy, _require(doc, "policy", origin), "policy")

    jobs_raw = _require(doc, "jobs", origin)
    if not isinstance(jobs_raw, list) or not jobs_raw:
        raise ConfigError("jobs: expected a non-empty array")
    jobs = tuple(_parse_job(j, i) for i, j in enumerate(jobs_raw))
    ids = [j.job_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigError("jobs: job_id values must be unique")

    return Scenario(
        name=name,
        jobs=jobs,
        cluster=_parse_cluster(_require(doc, "cluster", origin)),
        policy=policy,
    )


def load_config(path: str | Path) -> Scenario:
    """Load and validate a scenario file; errors name the offending field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.start} is invalid") from None
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError:  # int() refuses longer literals
        raise ConfigError(f"{path}: parse error: an integer literal has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ConfigError(f"{path}: parse error: arrays or objects nested too deeply") from None
    return parse_scenario(doc, origin=str(path))
