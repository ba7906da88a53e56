"""The figure shape-check functions must actually detect deviations
(synthetic data), and the harness drivers must return sane values."""

import pytest

from repro.bench import fig10, fig11, fig12, fig13, figures, nas
from repro.bench.sweep import reps_for


# ----------------------------------------------------------- figures util


def test_reps_scale_down_for_big_messages():
    assert reps_for(64) > reps_for(1 << 20)


# ------------------------------------------------------- fig10 detection


def _fig10_row(size, raw, base, counters, enhanced):
    return {"size": size, "raw-lapi": raw, "lapi-base": base,
            "lapi-counters": counters, "lapi-enhanced": enhanced}


def test_fig10_accepts_paper_shape():
    rows = [_fig10_row(64, 15.0, 65.0, 17.0, 17.5)]
    assert fig10.check_shape(rows) == []


def test_fig10_rejects_base_faster_than_enhanced():
    rows = [_fig10_row(64, 15.0, 16.0, 17.0, 17.5)]
    assert fig10.check_shape(rows)


def test_fig10_rejects_enhanced_far_from_raw():
    rows = [_fig10_row(64, 10.0, 99.0, 40.0, 30.0)]
    assert any("raw LAPI" in p for p in fig10.check_shape(rows))


# ------------------------------------------------------- fig11 detection


def _fig11_row(size, native, lapi):
    return {"size": size, "native": native, "lapi-enhanced": lapi,
            "improvement_%": 100.0 * (native - lapi) / native}


def test_fig11_accepts_crossover_shape():
    rows = [_fig11_row(4, 15.0, 16.5), _fig11_row(4096, 140.0, 80.0)]
    assert fig11.check_shape(rows) == []


def test_fig11_rejects_native_never_ahead():
    rows = [_fig11_row(4, 20.0, 15.0), _fig11_row(4096, 140.0, 80.0)]
    assert fig11.check_shape(rows)


def test_fig11_rejects_lapi_losing_large():
    rows = [_fig11_row(4, 15.0, 16.5), _fig11_row(4096, 80.0, 140.0)]
    assert fig11.check_shape(rows)


# ------------------------------------------------------- fig12 detection


def _fig12_row(size, native, lapi):
    return {"size": size, "native": native, "lapi-enhanced": lapi,
            "improvement_%": 100.0 * (lapi - native) / native}


def test_fig12_accepts_paper_shape():
    rows = [_fig12_row(4096, 45.0, 90.0), _fig12_row(65536, 75.0, 95.0),
            _fig12_row(1 << 20, 98.0, 96.0)]
    assert fig12.check_shape(rows) == []


def test_fig12_rejects_no_mid_range_win():
    rows = [_fig12_row(4096, 90.0, 91.0), _fig12_row(1 << 20, 98.0, 96.0)]
    assert fig12.check_shape(rows)


def test_fig12_rejects_divergence_at_top():
    rows = [_fig12_row(4096, 45.0, 90.0), _fig12_row(1 << 20, 50.0, 96.0)]
    assert any("converge" in p for p in fig12.check_shape(rows))


# ------------------------------------------------------- fig13 detection


def test_fig13_detection():
    good = [{"size": 4, "native": 150.0, "lapi-enhanced": 50.0, "speedup_x": 3.0}]
    bad = [{"size": 4, "native": 55.0, "lapi-enhanced": 50.0, "speedup_x": 1.1}]
    assert fig13.check_shape(good) == []
    assert fig13.check_shape(bad)


# --------------------------------------------------------- nas detection


def _nas(kernel, native, lapi):
    return {"kernel": kernel.upper(), "native_us": native, "mpi_lapi_us": lapi,
            "improvement_%": 100.0 * (native - lapi) / native}


def test_nas_accepts_paper_shape():
    rows = [_nas(k, 100.0, 75.0) for k in nas.IMPROVERS]
    rows += [_nas(k, 100.0, 98.0) for k in nas.FLAT]
    assert nas.check_shape(rows) == []


def test_nas_rejects_lapi_regression():
    rows = [_nas(k, 100.0, 75.0) for k in nas.IMPROVERS]
    rows += [_nas(k, 100.0, 98.0) for k in nas.FLAT]
    rows[0] = _nas("lu", 100.0, 130.0)
    assert nas.check_shape(rows)


def test_nas_rejects_inverted_groups():
    rows = [_nas(k, 100.0, 99.0) for k in nas.IMPROVERS]
    rows += [_nas(k, 100.0, 60.0) for k in nas.FLAT]
    assert any("comm-bound" in p for p in nas.check_shape(rows))


# ----------------------------------------------------------- live drivers


def test_rows_with_custom_sizes_fast():
    data = figures.rows("fig11", [8, 2048])
    assert [r["size"] for r in data] == [8, 2048]
    assert all(r["native"] > 0 and r["lapi-enhanced"] > 0 for r in data)


def test_bandwidth_driver_rejects_zero_size():
    from repro.bench.harness import bandwidth_mbps

    with pytest.raises(ValueError):
        bandwidth_mbps("native", 0)
