"""The figure table against the committed baselines and its CLIs."""

from pathlib import Path

import pytest

from repro.bench import artifact, report
from repro.bench.figures import FIGURES

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def test_every_artifact_has_a_baseline_and_every_baseline_an_entry():
    table = {f"BENCH_{fig.artifact}.json" for fig in FIGURES.values()}
    committed = {p.name for p in BASELINES.glob("BENCH_*.json")}
    assert table == committed


def test_cheap_artifacts_regenerate_byte_identical(tmp_path):
    assert artifact.main(["write", str(tmp_path), "fig11", "fig13"]) == 0
    for name in ("fig11", "fig13"):
        file = f"BENCH_{FIGURES[name].artifact}.json"
        assert (tmp_path / file).read_bytes() == (BASELINES / file).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_fig11_latency.json", "BENCH_fig13_interrupt.json"]


@pytest.mark.parametrize("argv", [
    ["write"],
    ["write", "--jobs", "2"],
    ["write", "out", "--jobs", "two"],
    ["write", "out", "fig99"],
])
def test_write_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact.main(argv) == 2
    assert not any(tmp_path.iterdir())


def test_report_prints_one_figure(capsys):
    assert report.main(["--fast", "fig13"]) == 0
    out = capsys.readouterr().out
    assert "Fig 13 — interrupt-mode latency (us)" in out
    assert "Fig 11" not in out
    assert "fig13   REPRODUCED" in out


def test_report_rejects_unknown_figure():
    with pytest.raises(SystemExit) as exc:
        report.main(["fig99"])
    assert exc.value.code == 2
