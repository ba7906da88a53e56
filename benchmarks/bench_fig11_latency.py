"""Fig 11 — polling-mode latency, native MPI vs MPI-LAPI Enhanced.

Shape: native wins (slightly) for very short messages; MPI-LAPI wins
beyond a small crossover and the gap grows with message size.
"""

import pytest

from repro.bench import fig11
from repro.bench.figures import FIGURES, rows
from repro.bench.harness import pingpong_us

SIZES = [4, 256, 4096]


@pytest.mark.parametrize("stack", ["native", "lapi-enhanced"])
@pytest.mark.parametrize("size", SIZES)
def test_latency(benchmark, stack, size):
    t = benchmark.pedantic(
        lambda: pingpong_us(stack, size, reps=6), rounds=2, iterations=1
    )
    assert t > 0


def test_fig11_shape(benchmark, shape_report):
    data = benchmark.pedantic(
        lambda: rows("fig11", [*FIGURES["fig11"].sweep, 16384]),
        rounds=1, iterations=1,
    )
    problems = fig11.check_shape(data)
    shape_report["fig11"] = problems
    assert not problems, problems
    # crossover exists: the winner flips somewhere in the sweep
    signs = [r["improvement_%"] > 0 for r in data]
    assert not signs[0] and signs[-1]
