"""Every NAS mini-kernel verifies against its serial reference,
on both protocol stacks and at multiple node counts."""

import numpy as np
import pytest

from repro import SPCluster
from repro.nas import KERNELS, run_kernel

ALL = sorted(KERNELS)


@pytest.mark.parametrize("kernel", ALL)
@pytest.mark.parametrize("stack", ["native", "lapi-enhanced"])
def test_kernel_verifies_on_4_nodes(kernel, stack):
    cluster = SPCluster(4, stack=stack)
    result = run_kernel(kernel, cluster)
    for outcome in result.values:
        assert outcome.verified, f"{kernel}/{stack}: {outcome.detail}"
    assert result.elapsed_us > 0


@pytest.mark.parametrize("kernel", ALL)
def test_kernel_verifies_on_2_nodes(kernel):
    cluster = SPCluster(2, stack="lapi-enhanced")
    result = run_kernel(kernel, cluster)
    for outcome in result.values:
        assert outcome.verified, f"{kernel}: {outcome.detail}"


def test_kernels_checksums_agree_across_stacks():
    """The numerics must be independent of the transport."""
    for kernel in ALL:
        sums = set()
        for stack in ("native", "lapi-base", "lapi-counters", "lapi-enhanced"):
            cluster = SPCluster(4, stack=stack)
            result = run_kernel(kernel, cluster)
            sums.add(round(result.values[0].checksum, 9))
        assert len(sums) == 1, f"{kernel}: checksum differs across stacks: {sums}"


def test_unknown_kernel_rejected():
    with pytest.raises(KeyError, match="unknown NAS kernel"):
        run_kernel("nope", SPCluster(2))


def test_ep_serial_reference_matches_parallel_counts():
    """The 4-rank EP run's allreduced annulus counts and Gaussian sums
    equal the single-process answer (each rank leapfrogs the LCG)."""
    from repro.nas.ep import serial_reference

    counts, sx, sy = serial_reference.__wrapped__(2048)
    assert counts.sum() > 0
    result = run_kernel("ep", SPCluster(4, stack="lapi-enhanced"), n_pairs=2048)
    for outcome in result.values:
        p_counts, p_sx, p_sy = outcome.detail
        np.testing.assert_array_equal(p_counts, counts)
        # the sums differ from the serial ones only in summation order
        assert p_sx == pytest.approx(sx, rel=1e-12, abs=1e-12)
        assert p_sy == pytest.approx(sy, rel=1e-12, abs=1e-12)


def test_is_handles_uneven_buckets():
    cluster = SPCluster(4, stack="lapi-enhanced")
    result = run_kernel("is", cluster, n_local=1000)
    assert all(o.verified for o in result.values)


def test_cg_converges_tightly():
    cluster = SPCluster(4, stack="lapi-enhanced")
    result = run_kernel("cg", cluster, n=128, iters=40)
    for o in result.values:
        assert o.verified
        assert o.detail < 1e-8


def test_lu_different_block_sizes():
    for block in (8, 16, 32):
        cluster = SPCluster(4, stack="lapi-enhanced")
        result = run_kernel("lu", cluster, block=block)
        assert all(o.verified for o in result.values), f"block={block}"
