"""Fig 10 — ping-pong time of RAW LAPI vs the three MPI-LAPI variants.

Regenerates the figure's series (reduced size sweep for CI speed) and
asserts the paper's shape: Base >> Counters >= Enhanced ~= RAW LAPI,
with the Counters variant tracking Enhanced in the eager range and Base
in the rendezvous range.
"""

import pytest

from repro.bench import fig10
from repro.bench.figures import FIGURES, rows
from repro.bench.harness import pingpong_us, raw_lapi_pingpong_us

SIZES = [4, 1024, 16384]


@pytest.mark.parametrize("size", SIZES)
def test_raw_lapi(benchmark, size):
    t = benchmark.pedantic(
        lambda: raw_lapi_pingpong_us(size, reps=6), rounds=2, iterations=1
    )
    assert t > 0


@pytest.mark.parametrize("variant", ["lapi-base", "lapi-counters", "lapi-enhanced"])
@pytest.mark.parametrize("size", SIZES)
def test_mpi_lapi_variant(benchmark, variant, size):
    t = benchmark.pedantic(
        lambda: pingpong_us(variant, size, reps=6), rounds=2, iterations=1
    )
    assert t > 0


def test_fig10_shape(benchmark, shape_report):
    data = benchmark.pedantic(
        lambda: rows("fig10", FIGURES["fig10"].sweep), rounds=1, iterations=1
    )
    problems = fig10.check_shape(data)
    shape_report["fig10"] = problems
    assert not problems, problems
    # the §5 narrative in one assertion: the base->enhanced gap at eager
    # sizes is dominated by the completion-handler thread switches
    small = data[0]
    assert small["lapi-base"] - small["lapi-enhanced"] > 20.0
