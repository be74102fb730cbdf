import pytest
from hypothesis import given, strategies as st

from colosim.workload import (
    JobProfile,
    TensorSpec,
    comp_time,
    fixture_names,
    fixture_profile,
)

MB = 10**6
MS = 10**6  # ns


def make_job(sizes, fwd=MS, bwd=2 * MS, iterations=5, job_id="job"):
    tensors = tuple(TensorSpec(f"t{i}", s) for i, s in enumerate(sizes))
    return JobProfile(job_id, fwd, bwd, tensors, iterations)


class TestFuseGradients:
    def test_sums_tensor_sizes(self):
        assert make_job([100 * MB, 300 * MB]).grad_bytes == 400 * MB

    def test_zero_byte_tensor(self):
        assert make_job([0]).grad_bytes == 0

    def test_resnet50_fixture_payload(self):
        # 25,557,032 fp32 parameters -> 102,228,128 bytes, pinned in the fixture
        assert fixture_profile("resnet50").grad_bytes == 102_228_128


class TestUnfusedMessages:
    def test_one_message_per_tensor(self):
        job = make_job([100 * MB, 300 * MB])
        assert [t.size_bytes for t in job.tensors] == [100 * MB, 300 * MB]

    def test_fixture_message_counts(self):
        # pinned from the bundled fixture inventories
        resnet = fixture_profile("resnet50").tensors
        vgg = fixture_profile("vgg16").tensors
        assert len(resnet) == 161
        assert len(vgg) == 32
        assert sum(t.size_bytes for t in resnet) == 102_228_128
        assert sum(t.size_bytes for t in vgg) == 553_430_176


class TestCompTime:
    def test_adds_forward_and_backward(self):
        assert comp_time(make_job([1], fwd=MS, bwd=2 * MS)) == 3 * MS

    def test_zero_forward(self):
        assert comp_time(make_job([1], fwd=0, bwd=5 * MS)) == 5 * MS

    def test_fixture_step_times(self):
        assert comp_time(fixture_profile("resnet50")) == 230_000_000
        assert comp_time(fixture_profile("vgg16")) == 580_000_000


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40))
def test_fusion_conserves_bytes(sizes):
    job = make_job(sizes)
    assert [t.size_bytes for t in job.tensors] == sizes
    assert job.grad_bytes == sum(sizes)


class TestInvariants:
    def test_negative_tensor_size_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec("t", -1)

    def test_empty_tensor_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            JobProfile("j", 1, 1, (), 1)

    def test_duplicate_tensor_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            JobProfile("j", 1, 1, (TensorSpec("t", 1), TensorSpec("t", 2)), 1)

    def test_zero_total_compute_rejected(self):
        with pytest.raises(ValueError):
            make_job([1], fwd=0, bwd=0)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            make_job([1], fwd=-1, bwd=2)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            make_job([1], iterations=0)


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ["resnet50", "vgg16"]

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            fixture_profile("alexnet")

    def test_overrides(self):
        job = fixture_profile("vgg16", job_id="left", iterations=7)
        assert job.job_id == "left"
        assert job.iterations == 7
