"""Fig 12 — streaming bandwidth, native MPI vs MPI-LAPI Enhanced.

Shape: MPI-LAPI leads over a wide mid range (roughly +25% around the
paper's highlighted size); the curves converge at very large messages.
"""

import pytest

from repro.bench import fig12
from repro.bench.figures import FIGURES, rows
from repro.bench.harness import bandwidth_mbps

SIZES = [1024, 65536]


@pytest.mark.parametrize("stack", ["native", "lapi-enhanced"])
@pytest.mark.parametrize("size", SIZES)
def test_bandwidth(benchmark, stack, size):
    bw = benchmark.pedantic(
        lambda: bandwidth_mbps(stack, size, count=16), rounds=2, iterations=1
    )
    assert bw > 0


def test_fig12_shape(benchmark, shape_report):
    data = benchmark.pedantic(
        lambda: rows("fig12", FIGURES["fig12"].sweep), rounds=1, iterations=1
    )
    problems = fig12.check_shape(data)
    shape_report["fig12"] = problems
    assert not problems, problems
