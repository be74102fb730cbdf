from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colosim.comm import Architecture, ClusterSpec, comm_time
from colosim.errors import ConfigError
from colosim.workload import JobProfile, comp_time, fixture_profile

from oracles import parameter_server_ns, ring_allreduce_ns

MB = 10**6

GBPS_100 = 12_500_000_000  # bytes/s
GBPS_10 = 1_250_000_000


def ring(workers, bandwidth=GBPS_100, latency=0):
    return ClusterSpec(workers=workers, bandwidth_bytes_per_sec=bandwidth,
                       latency_per_message=latency,
                       architecture=Architecture.RING_ALLREDUCE)


def ps(bandwidth=GBPS_10, latency=0, workers=4):
    return ClusterSpec(workers=workers, bandwidth_bytes_per_sec=bandwidth,
                       latency_per_message=latency,
                       architecture=Architecture.PARAMETER_SERVER)


class TestRingAllreduce:
    def test_single_worker_is_free(self):
        assert comm_time(400 * MB, ring(1)) == 0

    def test_latency_only_when_empty(self):
        # 2*(W-1)*alpha with W=4, alpha=10us
        assert comm_time(0, ring(4, latency=10_000)) == 60_000

    def test_latency_plus_bandwidth(self):
        # evaluated independently: 30us latency + 48ms transfer
        got = comm_time(400 * MB, ring(4, latency=5_000))
        assert got == 48_030_000

    def test_negative_size(self):
        with pytest.raises(ValueError):
            comm_time(-1, ring(2))


class TestParameterServer:
    def test_latency_only_when_empty(self):
        assert comm_time(0, ps(latency=10_000)) == 20_000

    def test_bandwidth_term(self):
        # 2 * 125MB / 1.25GB/s = 200ms, evaluated independently
        assert comm_time(125 * MB, ps(GBPS_10)) == 200_000_000

    def test_worker_count_irrelevant(self):
        assert comm_time(77 * MB, ps(workers=2)) == comm_time(77 * MB, ps(workers=16))


def _job(grad_bytes, fwd=1_000_000, bwd=1_000_000, job_id="j"):
    return JobProfile(job_id, fwd, bwd, grad_bytes, 4)


def _unfused(sizes, cluster):
    """No-fusion counterfactual: one sync message per gradient tensor."""
    return sum(comm_time(s, cluster) for s in sizes)


class TestCommTimeDispatch:
    def test_ps_fused(self):
        job = _job(400 * MB)
        cluster = ps(GBPS_100, latency=5_000)
        assert comm_time(job.grad_bytes, cluster) == 64_010_000  # 2a + 2S/B, independent calc

    def test_unfused_pays_latency_per_message(self):
        sizes = [100 * MB, 300 * MB]
        cluster = ring(4, latency=5_000)
        fused = comm_time(sum(sizes), cluster)
        unfused = _unfused(sizes, cluster)
        assert unfused - fused == 2 * 3 * 5_000  # one extra latency term set

    def test_zero_latency_makes_fusion_free(self):
        sizes = [100 * MB, 300 * MB]
        cluster = ring(4, latency=0)
        fused = comm_time(sum(sizes), cluster)
        assert _unfused(sizes, cluster) == fused


def _ratio(job, cluster):
    return Fraction(comm_time(job.grad_bytes, cluster), comp_time(job))


class TestCommCompRatio:
    def test_half(self):
        # comm 1ms (2*625kB at 1.25GB/s), comp 2ms
        job = _job(625_000)
        assert _ratio(job, ps(GBPS_10)) == Fraction(1, 2)

    def test_unity(self):
        job = _job(1_250_000)  # comm 2ms == comp 2ms
        assert _ratio(job, ps(GBPS_10)) == 1

    def test_resnet50_on_fast_ring_is_hidden(self):
        # frozen from an independent evaluation of the ring formula against
        # the fixture constants (15,484,220 ns sync vs 230 ms compute)
        ratio = _ratio(fixture_profile("resnet50"), ring(16, latency=5_000))
        assert ratio == Fraction(774_211, 11_500_000)
        assert 0 < ratio < 1


sizes_st = st.integers(min_value=0, max_value=10**10)


@given(sizes_st, sizes_st, st.integers(min_value=1, max_value=64))
def test_monotone_in_size(a, b, workers):
    lo, hi = sorted((a, b))
    for cluster in (ring(workers, latency=123), ps(latency=123, workers=workers)):
        assert comm_time(lo, cluster) <= comm_time(hi, cluster)


@given(sizes_st, st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_monotone_in_latency(size, l1, l2):
    lo, hi = sorted((l1, l2))
    assert (comm_time(size, ring(4, latency=lo))
            <= comm_time(size, ring(4, latency=hi)))
    assert comm_time(size, ps(latency=lo)) <= comm_time(size, ps(latency=hi))


@given(sizes_st, st.integers(min_value=1, max_value=10**12),
       st.integers(min_value=1, max_value=10**12))
def test_monotone_in_bandwidth(size, b1, b2):
    slow, fast = sorted((b1, b2))
    assert (comm_time(size, ring(4, bandwidth=fast))
            <= comm_time(size, ring(4, bandwidth=slow)))
    assert comm_time(size, ps(fast)) <= comm_time(size, ps(slow))


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=50_000),
       st.integers(min_value=2, max_value=16))
def test_fusion_dominance(sizes, latency, workers):
    for cluster in (ring(workers, latency=latency), ps(latency=latency)):
        fused = comm_time(sum(sizes), cluster)
        unfused = _unfused(sizes, cluster)
        assert fused <= unfused
        if latency > 0 and len(sizes) >= 2:
            assert fused < unfused


@settings(max_examples=500)
@given(st.sampled_from(Architecture), st.integers(min_value=1, max_value=1024),
       st.integers(min_value=1, max_value=10**13), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=2**62))
def test_matches_independent_formulas(architecture, workers, bandwidth, latency, size):
    cluster = ClusterSpec(workers=workers, bandwidth_bytes_per_sec=bandwidth,
                          latency_per_message=latency, architecture=architecture)
    if architecture is Architecture.RING_ALLREDUCE:
        expected = ring_allreduce_ns(size, workers, bandwidth, latency)
    else:
        expected = parameter_server_ns(size, bandwidth, latency)
    assert comm_time(size, cluster) == expected


class TestClusterValidation:
    def test_zero_workers(self):
        with pytest.raises(ConfigError):
            ClusterSpec(workers=0, bandwidth_bytes_per_sec=1)

    def test_zero_bandwidth(self):
        with pytest.raises(ConfigError):
            ClusterSpec(workers=1, bandwidth_bytes_per_sec=0)

    def test_negative_latency(self):
        with pytest.raises(ConfigError):
            ClusterSpec(workers=1, bandwidth_bytes_per_sec=1, latency_per_message=-1)
