"""§6.2 — NAS Parallel Benchmarks, native vs MPI-LAPI on 4 nodes.

One benchmark target per kernel plus the paper's comparison table as a
shape check: MPI-LAPI at least matches native on all eight kernels and
the communication-bound group (LU, IS, CG, BT, FT) improves more than
the compute-bound group (EP, MG, SP).
"""

import pytest

from repro.bench import nas as nasbench
from repro.bench.figures import rows
from repro.bench.nas import run_one
from repro.nas import KERNELS


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_on_mpi_lapi(benchmark, kernel):
    elapsed = benchmark.pedantic(
        lambda: run_one(kernel, "lapi-enhanced"), rounds=2, iterations=1
    )
    assert elapsed > 0


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_on_native(benchmark, kernel):
    elapsed = benchmark.pedantic(
        lambda: run_one(kernel, "native"), rounds=2, iterations=1
    )
    assert elapsed > 0


def test_nas_table_shape(benchmark, shape_report):
    data = benchmark.pedantic(lambda: rows("nas"), rounds=1, iterations=1)
    problems = nasbench.check_shape(data)
    shape_report["nas"] = problems
    assert not problems, problems
