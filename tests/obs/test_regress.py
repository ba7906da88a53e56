"""The artifact regression gate (``python -m repro.bench.regress``)."""

import json
from pathlib import Path

import pytest

from repro.bench.artifact import make_artifact, write_artifact
from repro.bench.regress import compare_artifacts, main


def _doc(lat=10.0, imp=5.0, name="toy", sizes=(4,)):
    return make_artifact(
        name,
        params={"sizes": list(sizes), "reps": 3},
        results=[{"size": s, "lat_us": lat, "improvement_%": imp}
                 for s in sizes],
    )


@pytest.fixture
def baseline(tmp_path):
    base = tmp_path / "baselines"
    write_artifact(_doc(), base)
    return base / "BENCH_toy.json"


def _write(tmp_path, doc, stem="cur"):
    d = tmp_path / stem
    return write_artifact(doc, d)


def test_identical_artifacts_pass(tmp_path, baseline):
    cur = _write(tmp_path, _doc())
    assert main([str(baseline), str(cur)]) == 0


def test_regression_fails(tmp_path, baseline, capsys):
    cur = _write(tmp_path, _doc(lat=11.0))  # +10% > the 5% default
    assert main([str(baseline), str(cur)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results[size=4].lat_us" in out


def test_improvement_within_tolerance_passes(tmp_path, baseline):
    cur = _write(tmp_path, _doc(lat=10.3))  # 3% < 5%
    assert main([str(baseline), str(cur)]) == 0


def test_improvement_pct_gets_absolute_band(tmp_path, baseline):
    # 5.0 → 6.5 is +30% relative but only 1.5 points — inside the
    # builtin ±2-point band for *improvement_%* metrics
    assert main([str(baseline),
                 str(_write(tmp_path, _doc(imp=6.5), "a"))]) == 0
    assert main([str(baseline),
                 str(_write(tmp_path, _doc(imp=8.5), "b"))]) == 1


def test_tol_override_widens_the_gate(tmp_path, baseline):
    cur = _write(tmp_path, _doc(lat=11.0))
    assert main([str(baseline), str(cur),
                 "--tol", "*lat_us=0.25"]) == 0
    assert main([str(baseline), str(cur),
                 "--tol", "*lat_us=0.25", "--tol", "*lat_us=0.01"]) == 1


def test_param_drift_is_not_comparable(tmp_path, baseline):
    doc = _doc()
    doc["params"]["reps"] = 99
    assert main([str(baseline), str(_write(tmp_path, doc))]) == 1


def test_schema_mismatch_fails(tmp_path, baseline):
    cur = _write(tmp_path, _doc())
    doc = json.loads(cur.read_text())
    doc["schema"] = "repro-bench/1"
    cur.write_text(json.dumps(doc))
    assert main([str(baseline), str(cur)]) == 1


def test_directory_mode(tmp_path):
    base, cur = tmp_path / "base", tmp_path / "cur"
    write_artifact(_doc(), base)
    write_artifact(_doc(name="other"), base)
    write_artifact(_doc(), cur)
    write_artifact(_doc(name="other", lat=20.0), cur)
    assert main([str(base), str(cur)]) == 1  # "other" regressed
    write_artifact(_doc(name="other"), cur)
    assert main([str(base), str(cur)]) == 0


def test_missing_current_artifact_fails(tmp_path):
    base, cur = tmp_path / "base", tmp_path / "cur"
    write_artifact(_doc(), base)
    cur.mkdir()
    assert main([str(base), str(cur)]) == 1


def test_current_artifact_without_a_baseline_fails(tmp_path, capsys):
    base, cur = tmp_path / "base", tmp_path / "cur"
    write_artifact(_doc(), base)
    write_artifact(_doc(), cur)
    write_artifact(_doc(name="unbaselined"), cur)
    assert main([str(base), str(cur)]) == 1
    assert "BENCH_unbaselined.json" in capsys.readouterr().out


def test_file_vs_directory_is_a_usage_error(tmp_path, baseline):
    assert main([str(baseline), str(tmp_path)]) == 2


def test_row_disappearance_fails():
    base = _doc(sizes=(4, 16))
    cur = _doc(sizes=(4,))
    deltas = compare_artifacts(base, cur)
    bad = [d for d in deltas if not d.ok]
    assert any("size=16" in d.path for d in bad)


FIG11 = (Path(__file__).resolve().parents[2]
         / "benchmarks" / "baselines" / "BENCH_fig11_latency.json")


def test_checked_in_baseline_matches_itself():
    """The seeded baseline passes its own gate (what CI regenerates
    must be compared against *something* that is already green)."""
    assert FIG11.exists()
    assert main([str(FIG11), str(FIG11)]) == 0


def test_metrics_section_is_compared(tmp_path, capsys):
    doc = json.loads(FIG11.read_text())
    counters = doc["metrics"]["aggregate"]["counters"]
    assert counters["acks_sent"] == 2
    counters["acks_sent"] = 27
    cur = tmp_path / FIG11.name
    cur.write_text(json.dumps(doc))
    assert main([str(FIG11), str(cur)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION (1 of" in out
    assert "metrics.aggregate.counters.acks_sent" in out
