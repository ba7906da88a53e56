"""Fig 13 — interrupt-mode latency, native MPI vs MPI-LAPI.

Shape: MPI-LAPI wins decisively at every size; the native stack's
hysteresis dwell (its interrupt handler spins waiting for more packets)
is the pathology the paper identifies.
"""

import pytest

from repro import MachineParams
from repro.bench import fig13
from repro.bench.figures import FIGURES, rows
from repro.bench.harness import interrupt_pingpong_us

SIZES = [4, 1024]


@pytest.mark.parametrize("stack", ["native", "lapi-enhanced"])
@pytest.mark.parametrize("size", SIZES)
def test_interrupt_latency(benchmark, stack, size):
    t = benchmark.pedantic(
        lambda: interrupt_pingpong_us(stack, size, reps=6), rounds=2, iterations=1
    )
    assert t > 0


def test_fig13_shape(benchmark, shape_report):
    data = benchmark.pedantic(
        lambda: rows("fig13", FIGURES["fig13"].sweep), rounds=1, iterations=1
    )
    problems = fig13.check_shape(data)
    shape_report["fig13"] = problems
    assert not problems, problems


def test_hysteresis_dwells_are_the_cause(benchmark):
    """Structural check: the native stack actually takes dwells, and
    removing them (hysteresis window -> ~0) closes most of the gap."""

    def measure():
        normal = interrupt_pingpong_us("native", 64, reps=6)
        no_dwell = interrupt_pingpong_us(
            "native", 64, reps=6,
            params=MachineParams(hysteresis_initial_us=1.0, hysteresis_max_us=1.0),
        )
        lapi = interrupt_pingpong_us("lapi-enhanced", 64, reps=6)
        return normal, no_dwell, lapi

    normal, no_dwell, lapi = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert normal > no_dwell * 1.5
    assert no_dwell < lapi * 1.8
