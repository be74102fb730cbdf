import pytest

from colosim import workload
from colosim.comm import ClusterSpec
from colosim.errors import ConfigError
from colosim.scheduler import Policy, SchedulePlan
from colosim.workload import (
    JobProfile,
    comp_time,
    fixture_names,
    fixture_profile,
)

from oracles import fixture_tensor_sizes

MB = 10**6
MS = 10**6  # ns


def make_job(grad_bytes=MB, fwd=MS, bwd=2 * MS, iterations=5, job_id="job"):
    return JobProfile(job_id, fwd, bwd, grad_bytes, iterations)


class TestFuseGradients:
    def test_zero_byte_tensor(self):
        # an empty gradient is a legal job: its sync pays latency only
        assert make_job(0).grad_bytes == 0

    def test_resnet50_fixture_payload(self):
        # 25,557,032 fp32 parameters -> 102,228,128 bytes, pinned in the fixture
        assert fixture_profile("resnet50").grad_bytes == 102_228_128


class TestUnfusedMessages:
    def test_fixture_message_counts(self):
        # pinned from the bundled fixture inventories, which load as their sum
        resnet = fixture_tensor_sizes("resnet50")
        vgg = fixture_tensor_sizes("vgg16")
        assert len(resnet) == 161
        assert len(vgg) == 32
        assert sum(resnet) == fixture_profile("resnet50").grad_bytes == 102_228_128
        assert sum(vgg) == fixture_profile("vgg16").grad_bytes == 553_430_176

    def test_each_profile_is_summed_once_at_load(self, monkeypatch):
        want = {name: sum(fixture_tensor_sizes(name)) for name in fixture_names()}
        fixture_profile("vgg16")  # loads the file
        monkeypatch.setattr(workload, "sum", None, raising=False)  # a later sum would fail
        assert {name: fixture_profile(name).grad_bytes for name in fixture_names()} == want


class TestCompTime:
    def test_adds_forward_and_backward(self):
        assert comp_time(make_job(fwd=MS, bwd=2 * MS)) == 3 * MS

    def test_zero_forward(self):
        assert comp_time(make_job(fwd=0, bwd=5 * MS)) == 5 * MS

    def test_fixture_step_times(self):
        assert comp_time(fixture_profile("resnet50")) == 230_000_000
        assert comp_time(fixture_profile("vgg16")) == 580_000_000


class TestInvariants:
    """A job is a plain record: the plan that holds it checks its fields."""

    @staticmethod
    def plan_of(job):
        return SchedulePlan(Policy.CROSSOVER, (job,), ClusterSpec(2, 10**9))

    def test_negative_tensor_size_rejected(self):
        job = make_job(-1)
        with pytest.raises(ConfigError, match=r"^jobs\[0\]\.grad_bytes: must be >= 0$"):
            self.plan_of(job)

    def test_zero_total_compute_rejected(self):
        job = make_job(fwd=0, bwd=0)
        with pytest.raises(ConfigError, match=r"^jobs\[0\]: forward_time \+ backward_time"):
            self.plan_of(job)

    def test_negative_compute_rejected(self):
        job = make_job(fwd=-1, bwd=2)
        with pytest.raises(ConfigError, match=r"^jobs\[0\]\.forward_time: must be >= 0$"):
            self.plan_of(job)

    def test_zero_iterations_rejected(self):
        job = make_job(iterations=0)
        with pytest.raises(ConfigError, match=r"^jobs\[0\]\.iterations: must be >= 1$"):
            self.plan_of(job)


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ["resnet50", "vgg16"]

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match=r"^fixture profile 'alexnet' is not one of "
                                              r"resnet50, vgg16$"):
            fixture_profile("alexnet")

    def test_overrides(self):
        job = fixture_profile("vgg16", job_id="left", iterations=7)
        assert job.job_id == "left"
        assert job.iterations == 7
