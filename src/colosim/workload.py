"""Training-job profiles.

A job profile describes one data-parallel training application from the
simulator's point of view: how long one iteration computes on the GPU
(forward + backward) and which gradient tensors it must synchronize
afterwards.  The tensors are fused into one message of ``grad_bytes``
bytes, so per-message latency is paid once per iteration.  All durations
are integer nanoseconds; payloads are bytes.

Two calibration profiles ("resnet50", "vgg16") ship with the package as
versioned fixture data under ``colosim/data/profiles.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

__all__ = [
    "TensorSpec",
    "JobProfile",
    "comp_time",
    "fixture_profile",
    "fixture_names",
]


@dataclass(frozen=True)
class TensorSpec:
    """One gradient tensor: a name and its payload size in bytes."""

    name: str
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError(f"tensor {self.name!r}: size_bytes must be >= 0")


@dataclass(frozen=True)
class JobProfile:
    """Per-iteration cost profile of one training job.

    forward_time/backward_time are nanoseconds for one iteration's forward
    and backward pass; tensors are the gradient tensors produced each
    iteration; iterations is the job's total iteration budget.
    """

    job_id: str
    forward_time: int
    backward_time: int
    tensors: tuple[TensorSpec, ...]
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        if self.forward_time < 0 or self.backward_time < 0:
            raise ValueError(f"job {self.job_id!r}: compute times must be >= 0")
        if self.forward_time + self.backward_time <= 0:
            raise ValueError(f"job {self.job_id!r}: forward + backward must be > 0")
        if self.iterations < 1:
            raise ValueError(f"job {self.job_id!r}: iterations must be >= 1")
        if not self.tensors:
            raise ValueError(f"job {self.job_id!r}: tensor list must be non-empty")
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise ValueError(f"job {self.job_id!r}: tensor names must be unique")

    @property
    def grad_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tensors)


def comp_time(job: JobProfile) -> int:
    """Total compute time of one iteration (forward + backward), nanoseconds."""
    return job.forward_time + job.backward_time


@lru_cache(maxsize=1)
def _fixture_data() -> dict:
    raw = resources.files("colosim.data").joinpath("profiles.json").read_text()
    return json.loads(raw)


def fixture_names() -> list[str]:
    return sorted(_fixture_data()["profiles"])


def fixture_profile(name: str, job_id: str | None = None,
                    iterations: int | None = None) -> JobProfile:
    """Load a bundled calibration profile by name.

    The payload/time constants are fixture data pinned in
    ``colosim/data/profiles.json`` (version field inside), not measurements.
    """
    profiles = _fixture_data()["profiles"]
    if name not in profiles:
        raise KeyError(f"unknown fixture profile {name!r}; available: {fixture_names()}")
    p = profiles[name]
    return JobProfile(
        job_id=job_id if job_id is not None else name,
        forward_time=p["forward_ns"],
        backward_time=p["backward_ns"],
        tensors=tuple(TensorSpec(n, s) for n, s in p["tensors"]),
        iterations=iterations if iterations is not None else p["iterations"],
    )
