"""The parallel sweep runner must reproduce serial results exactly.

Every sweep cell builds its own :class:`Environment` and derives all
randomness from its own explicit arguments, so fanning cells across
worker processes cannot change any result — these tests pin that
byte-identity for the runner itself and for a mixed real sweep
(a fig11 latency point, a fault-injection cell, and a NAS kernel).
"""

import dataclasses
import json

import pytest

from repro.bench.parallel import Cell, default_jobs, run_cells


def _square(x):
    return x * x


def _tag(prefix, x, suffix=""):
    return f"{prefix}{x}{suffix}"


def test_cell_is_callable_and_reprs():
    c = Cell(_tag, "n", 3, suffix="!")
    assert c() == "n3!"
    assert "_tag" in repr(c)


def test_run_cells_preserves_submission_order():
    cells = [Cell(_square, i) for i in range(20)]
    assert run_cells(cells, jobs=4) == [i * i for i in range(20)]


def test_serial_modes_are_equivalent():
    cells = [Cell(_square, i) for i in range(5)]
    expect = [i * i for i in range(5)]
    assert run_cells(cells) == expect            # jobs=None
    assert run_cells(cells, jobs=1) == expect    # explicit serial
    assert run_cells(cells, jobs=-3) == expect   # nonsense -> serial


def test_jobs_zero_means_one_worker_per_cpu():
    assert default_jobs() >= 1
    cells = [Cell(_square, i) for i in range(4)]
    assert run_cells(cells, jobs=0) == [0, 1, 4, 9]


def test_single_cell_runs_in_process():
    assert run_cells([Cell(_square, 7)], jobs=8) == [49]


@pytest.mark.parametrize("jobs", [2, 3])
def test_mixed_sweep_parallel_identical_to_serial(jobs):
    """One cell from each sweep family, serial vs parallel."""
    from repro.bench.fig11 import _row as fig11_row
    from repro.bench.nas import _row as nas_row
    from repro.faults.campaign import _reference_payload, _run_cell
    from repro.faults.plan import builtin_plan

    ref = _reference_payload("pingpong", "lapi-enhanced", 0, None)
    cells = [
        Cell(fig11_row, 256, None),
        Cell(_run_cell, builtin_plan("loss-burst"), "pingpong", ref,
             "lapi-enhanced", 0, None, False),
        Cell(nas_row, "is", None),
    ]
    serial = run_cells(cells, jobs=None)
    parallel = run_cells(cells, jobs=jobs)

    # Byte-level identity, not approximate equality.
    def canon(results):
        return json.dumps(
            [dataclasses.asdict(r) if dataclasses.is_dataclass(r) else r
             for r in results],
            sort_keys=True)

    assert canon(parallel) == canon(serial)


def test_fig11_rows_worker_count_invariant():
    from repro.bench.figures import rows

    sizes = [64, 4096]
    serial = rows("fig11", sizes)
    assert rows("fig11", sizes, jobs=2) == serial
