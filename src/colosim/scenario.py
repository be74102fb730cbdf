"""Scenario configs: JSON files with human-scale units, validated at load.

Config fields carry unit suffixes (forward_ms, grad_mb, bandwidth_gbps,
latency_us) and are converted exactly once into the internal integer units
(nanoseconds, bytes, bytes/s).  Conversion goes through exact rational
arithmetic on the decimal literal, so a value either lands on a whole
internal unit or is rejected -- there is no silent rounding.  Divisors:
ms*1e6 -> ns, MB*1e6 -> bytes, us*1e3 -> ns, Gbps*1e9/8 -> bytes/s.
"""

from __future__ import annotations

import json
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
# at a few KB of memory per job-iteration, so this keeps a run to a few GB.
MAX_JOB_ITERATIONS = 10**6


@dataclass(frozen=True)
class Scenario:
    """A fully validated, unit-normalized simulation setup."""

    name: str
    jobs: tuple[JobProfile, ...]
    cluster: ClusterSpec
    policy: Policy
    iterations_override: int | None = None

    def plan(self, iterations: int | None = None) -> SchedulePlan:
        """Build the schedule plan, optionally overriding every job's budget."""
        override = iterations if iterations is not None else self.iterations_override
        jobs = self.jobs
        if override is not None:
            if override < 1:
                raise ConfigError("iterations override must be >= 1")
            jobs = tuple(replace(j, iterations=override) for j in jobs)
        total = sum(j.iterations for j in jobs)
        if total > MAX_JOB_ITERATIONS:
            raise ConfigError(
                f"iterations: {total} job-iterations in all exceed the limit of "
                f"{MAX_JOB_ITERATIONS} (lower iterations, iterations_override or --iters)")
        return SchedulePlan(policy=self.policy, jobs=jobs, cluster=self.cluster)


def scaled_int(value, num: int, den: int, field: str) -> int:
    """Convert a config number to internal integer units, exactly or not at all."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        exact = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{field}: {value!r} is not a finite number") from None
    scaled = exact * num / den
    if scaled.denominator != 1:
        raise ConfigError(
            f"{field}: {value!r} does not land on a whole internal unit "
            f"(scale {num}/{den})")
    n = int(scaled)
    if not -_INT_LIMIT < n < _INT_LIMIT:
        raise ConfigError(f"{field}: {value!r} overflows the internal integer range")
    return n


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return obj[key]


def _count_field(obj: dict, key: str, where: str) -> int:
    """A required integer field that must be >= 1."""
    v = _require(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    if v < 1:
        raise ConfigError(f"{where}.{key}: must be >= 1")
    return v


def _parse_cluster(obj, where: str = "cluster") -> ClusterSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    arch_raw = _require(obj, "architecture", where)
    try:
        arch = Architecture(arch_raw)
    except ValueError:
        allowed = ", ".join(a.value for a in Architecture)
        raise ConfigError(
            f"{where}.architecture: unknown value {arch_raw!r} (allowed: {allowed})"
        ) from None
    bandwidth = scaled_int(_require(obj, "bandwidth_gbps", where),
                           10**9, 8, f"{where}.bandwidth_gbps")
    if bandwidth <= 0:
        raise ConfigError(f"{where}.bandwidth_gbps: must be > 0")
    return ClusterSpec(
        workers=_count_field(obj, "workers", where),
        bandwidth_bytes_per_sec=bandwidth,
        latency_per_message=scaled_int(obj.get("latency_us", 0), 10**3, 1,
                                       f"{where}.latency_us"),
        architecture=arch,
    )


def _parse_job(obj, index: int) -> JobProfile:
    where = f"jobs[{index}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    job_id = _require(obj, "job_id", where)
    if not isinstance(job_id, str) or not job_id:
        raise ConfigError(f"{where}.job_id: expected a non-empty string")

    if "profile" in obj:
        name = obj["profile"]
        if name not in fixture_names():
            raise ConfigError(
                f"{where}.profile: unknown profile {name!r} "
                f"(available: {', '.join(fixture_names())})")
        iterations = None
        if "iterations" in obj:
            iterations = _count_field(obj, "iterations", where)
        return fixture_profile(name, job_id=job_id, iterations=iterations)

    iterations = _count_field(obj, "iterations", where)
    grad_bytes = scaled_int(_require(obj, "grad_mb", where), 10**6, 1,
                            f"{where}.grad_mb")
    if grad_bytes < 0:
        raise ConfigError(f"{where}.grad_mb: must be >= 0")
    forward = scaled_int(_require(obj, "forward_ms", where), 10**6, 1,
                         f"{where}.forward_ms")
    backward = scaled_int(_require(obj, "backward_ms", where), 10**6, 1,
                          f"{where}.backward_ms")
    if forward < 0 or backward < 0:
        raise ConfigError(f"{where}: compute times must be >= 0")
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
    name = _require(doc, "name", origin)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{origin}: name must be a non-empty string")

    policy_raw = _require(doc, "policy", origin)
    try:
        policy = Policy(policy_raw)
    except ValueError:
        allowed = ", ".join(p.value for p in Policy)
        raise ConfigError(
            f"policy: unknown value {policy_raw!r} (allowed: {allowed})") from None

    jobs_raw = _require(doc, "jobs", origin)
    if not isinstance(jobs_raw, list) or not jobs_raw:
        raise ConfigError("jobs: expected a non-empty array")
    jobs = tuple(_parse_job(j, i) for i, j in enumerate(jobs_raw))
    ids = [j.job_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigError("jobs: job_id values must be unique")

    override = None
    if doc.get("iterations_override") is not None:
        override = _count_field(doc, "iterations_override", origin)

    return Scenario(
        name=name,
        jobs=jobs,
        cluster=_parse_cluster(_require(doc, "cluster", origin)),
        policy=policy,
        iterations_override=override,
    )


def load_config(path: str | Path) -> Scenario:
    """Load and validate a scenario file; errors name the offending field."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(doc, origin=str(path))
