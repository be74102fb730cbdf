"""Training-job profiles.

A job profile describes one data-parallel training application from the
simulator's point of view: how long one iteration computes on the GPU
(forward + backward) and how many gradient bytes it must synchronize
afterwards.  The gradient tensors are fused into one message of
``grad_bytes`` bytes, so per-message latency is paid once per iteration.
All durations are integer nanoseconds; payloads are bytes.

Two calibration profiles ("resnet50", "vgg16") ship with the package as
versioned fixture data under ``colosim/data/profiles.json``; their
per-tensor inventories are summed into ``grad_bytes`` at load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import ConfigError, _a

__all__ = ["JobProfile", "fixture_profile"]


@dataclass(frozen=True)
class JobProfile:
    """One job's per-iteration costs: a plain record that ``SchedulePlan`` checks.

    forward_time/backward_time are nanoseconds for one iteration's forward
    and backward pass; grad_bytes is the fused gradient synchronized after
    each iteration; iterations is the job's total iteration budget.
    """

    job_id: str
    forward_time: int
    backward_time: int
    grad_bytes: int
    iterations: int


def comp_time(job: JobProfile) -> int:
    """Total compute time of one iteration (forward + backward), nanoseconds."""
    return job.forward_time + job.backward_time


@lru_cache(maxsize=1)
def _fixture_data() -> dict:
    """The fixture file, each profile's tensor sizes summed into its ``grad_bytes`` once."""
    raw = resources.files("colosim.data").joinpath("profiles.json").read_text()
    data = json.loads(raw)
    for p in data["profiles"].values():
        p["grad_bytes"] = sum(size for _, size in p["tensors"])
    return data


def fixture_names() -> list[str]:
    return sorted(_fixture_data()["profiles"])


def fixture_profile(name: str, job_id: str | None = None,
                    iterations: int | None = None) -> JobProfile:
    """Load a bundled calibration profile by name; any other name is a ``ConfigError``.

    The payload/time constants are fixture data pinned in
    ``colosim/data/profiles.json`` (version field inside), not measurements.
    """
    profiles = _fixture_data()["profiles"]
    if not isinstance(name, str) or name not in profiles:
        shown = repr(name) if isinstance(name, str) else _a(name)
        raise ConfigError(f"fixture profile {shown} is not one of {', '.join(fixture_names())}")
    p = profiles[name]
    return JobProfile(
        job_id=job_id if job_id is not None else name,
        forward_time=p["forward_ns"],
        backward_time=p["backward_ns"],
        grad_bytes=p["grad_bytes"],
        iterations=iterations if iterations is not None else p["iterations"],
    )
