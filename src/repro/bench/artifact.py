"""Schema-versioned JSON artifacts for benchmark runs.

Every benchmark driver can serialise its run to ``BENCH_<name>.json``:
the sweep parameters, the per-size result rows, an optional metrics
snapshot (:meth:`repro.cluster.SPCluster.metrics_snapshot`) and an
optional latency breakdown (:func:`repro.obs.summarize` output per
stack).  Artifacts are deterministic — sorted keys, no timestamps — so
two identical runs produce byte-identical files.

Write the figures' artifacts (:mod:`repro.bench.figures`) or validate::

    python -m repro.bench.artifact write DIR [--jobs N] [NAME ...]
    python -m repro.bench.artifact validate BENCH_fig11_latency.json
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.breakdown import PHASES

__all__ = [
    "SCHEMA",
    "load_artifact",
    "make_artifact",
    "validate_artifact",
    "write_artifact",
    "write_figures",
]

#: current artifact schema identifier; bump the suffix on layout changes
#: (v2: breakdown phases gained "interrupt"; metrics may carry "trace")
SCHEMA = "repro-bench/2"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_\-]*$")
_SCALAR = (str, int, float, bool, type(None))


def make_artifact(
    name: str,
    params: dict,
    results: list[dict],
    metrics: Optional[dict] = None,
    breakdown: Optional[dict] = None,
) -> dict:
    """Assemble (and validate) one artifact document."""
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "name": name,
        "params": params,
        "results": results,
    }
    if metrics is not None:
        doc["metrics"] = metrics
    if breakdown is not None:
        doc["breakdown"] = breakdown
    problems = validate_artifact(doc)
    if problems:
        raise ValueError(f"artifact {name!r} invalid: " + "; ".join(problems))
    return doc


def validate_artifact(doc: Any) -> list[str]:
    """All the ways ``doc`` deviates from the schema (empty == valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["artifact must be a JSON object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        problems.append(f"name must match {_NAME_RE.pattern}, got {name!r}")
    if not isinstance(doc.get("params"), dict):
        problems.append("params must be an object")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty array")
    else:
        keys = None
        for i, row in enumerate(results):
            if not isinstance(row, dict):
                problems.append(f"results[{i}] is not an object")
                continue
            if keys is None:
                keys = set(row)
            elif set(row) != keys:
                problems.append(f"results[{i}] keys differ from results[0]")
            for k, v in row.items():
                if not isinstance(v, _SCALAR):
                    problems.append(f"results[{i}].{k} is not a JSON scalar")
    if "metrics" in doc:
        m = doc["metrics"]
        if not isinstance(m, dict):
            problems.append("metrics must be an object")
        else:
            for section in ("cluster", "aggregate", "nodes"):
                if section not in m:
                    problems.append(f"metrics missing {section!r}")
    if "breakdown" in doc:
        b = doc["breakdown"]
        if not isinstance(b, dict) or not b:
            problems.append("breakdown must be a non-empty object")
        else:
            for label, summary in b.items():
                if not isinstance(summary, dict):
                    problems.append(f"breakdown[{label!r}] is not an object")
                    continue
                phases = summary.get("phases_us")
                if not isinstance(phases, dict) or set(phases) != set(PHASES):
                    problems.append(
                        f"breakdown[{label!r}].phases_us must cover {PHASES}"
                    )
                if not isinstance(summary.get("count"), int):
                    problems.append(f"breakdown[{label!r}].count must be an int")
    try:
        json.dumps(doc, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        problems.append(f"not JSON-serialisable: {exc}")
    return problems


def write_artifact(doc: dict, directory: Union[str, Path] = ".") -> Path:
    """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
    problems = validate_artifact(doc)
    if problems:
        raise ValueError("refusing to write invalid artifact: " + "; ".join(problems))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{doc['name']}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def load_artifact(path: Union[str, Path]) -> dict:
    """Read and validate an artifact; raises ``ValueError`` when invalid."""
    doc = json.loads(Path(path).read_text())
    problems = validate_artifact(doc)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return doc


def write_figures(directory: Union[str, Path], names: list[str],
                  jobs: Optional[int] = None) -> int:
    """Write the named figures' artifacts (all if ``names`` is empty);
    1 on a shape problem, 2 on an unknown name.  Same bytes at any ``jobs``."""
    from repro.bench.figures import FIGURES, artifact

    if not set(names) <= FIGURES.keys():
        print(f"figures are {', '.join(FIGURES)}", file=sys.stderr)
        return 2
    status = 0
    for name in names or FIGURES:
        doc, problems = artifact(name, jobs=jobs)
        print(f"wrote {write_artifact(doc, directory)}")
        for p in problems:
            print(f"  shape problem: {p}")
        status |= bool(problems)
    return status


def _validate(paths: list[str]) -> int:
    status = 0
    for arg in paths:
        try:
            doc = json.loads(Path(arg).read_text())
        except (OSError, ValueError) as exc:
            print(f"{arg}: UNREADABLE ({exc})")
            status = 1
            continue
        problems = validate_artifact(doc)
        if problems:
            status = 1
            print(f"{arg}: INVALID")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{arg}: OK ({doc['name']}, {len(doc['results'])} rows)")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    match argv:
        case ["write", directory, "--jobs", jobs, *names] if jobs.isdigit():
            return write_figures(directory, names, int(jobs))
        case ["write", directory, *names] if not directory.startswith("-"):
            return write_figures(directory, names)
        case ["validate", *paths] if paths:
            return _validate(paths)
    print("usage: python -m repro.bench.artifact write DIR [--jobs N] [NAME ...]\n"
          "       python -m repro.bench.artifact validate FILE [FILE...]",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
