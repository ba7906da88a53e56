"""RMA (MPI-3 one-sided) vs two-sided — the layering contrast.

The paper built two-sided MPI on one-sided LAPI; ``repro.mpi.rma`` maps
MPI-3 one-sided back onto those primitives directly.  The asserted
shape: a fence-synchronized small put beats two-sided send/recv on the
thin LAPI mapping, while the native stack — which must *emulate* RMA
through a target-side server over send/recv — pays for the layering
inversion at every size.
"""

import pytest

from repro.bench import rma
from repro.bench.figures import rows

SIZES = [8, 1024, 16384]


@pytest.mark.parametrize("stack", ["lapi-enhanced", "native"])
@pytest.mark.parametrize("size", SIZES)
def test_rma_pingpong(benchmark, stack, size):
    t = benchmark.pedantic(
        lambda: rma.rma_pingpong_us(stack, size, reps=6), rounds=2,
        iterations=1,
    )
    assert t > 0


@pytest.mark.parametrize("stack", ["lapi-enhanced", "native"])
def test_rma_lock_round(benchmark, stack):
    t = benchmark.pedantic(
        lambda: rma.rma_lock_us(stack, 8, reps=6), rounds=2, iterations=1
    )
    assert t > 0


def test_rma_shape(benchmark, shape_report):
    data = benchmark.pedantic(lambda: rows("rma"), rounds=1, iterations=1)
    problems = rma.check(data)
    shape_report["rma"] = problems
    assert not problems, problems
