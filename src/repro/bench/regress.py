"""Artifact-driven performance-regression gate.

Compares two schema-versioned ``BENCH_<name>.json`` artifacts (see
``repro.bench.artifact``) — or two directories of them — metric by
metric, with per-metric relative tolerances, and exits non-zero when
the current run regressed against the baseline.  The simulation is
deterministic, so the checked-in baselines reproduce exactly and the
default tolerance only absorbs genuine model changes, not noise.

Usage::

    python -m repro.bench.regress BASELINE CURRENT [options]

    BASELINE / CURRENT   artifact files, or directories of them
                         (directories are joined on file name)

    --rtol X             default relative tolerance (default 0.05)
    --atol Y             default absolute tolerance in the metric's own
                         unit (default 1e-9)
    --tol GLOB=RTOL[,ATOL]
                         per-metric override; GLob matches the metric
                         path (e.g. 'breakdown.*.phases_us.wire');
                         repeatable, last match wins

Metric paths look like ``results[size=256].latency_us``,
``breakdown.native.phases_us.copy`` and
``metrics.aggregate.counters.acks_sent``.  A metric fails when
``|current - baseline| > atol + rtol * |baseline|`` (either direction:
a large unexplained speed-up is as suspicious as a slowdown — it
usually means the benchmark stopped measuring what it thinks).
Non-numeric values, ``params``, and the schema line must match exactly.
In directory mode a current artifact with no baseline is a failure.

Exit status: 0 all within tolerance, 1 regression (table on stdout),
2 usage error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path
from typing import Any, Optional, Union

from repro.bench.artifact import validate_artifact

__all__ = ["compare_artifacts", "compare_paths", "main"]

#: (glob, rtol, atol) defaults applied before user --tol rules; ratios
#: of small numbers swing hard, so improvement percentages get a wide
#: absolute band (percentage points) instead of a relative one
_BUILTIN_TOLS = [
    ("*improvement_%*", 0.05, 2.0),
]


class _Tolerances:
    def __init__(self, rtol: float, atol: float,
                 rules: list[tuple[str, float, float]]):
        self.rtol = rtol
        self.atol = atol
        self.rules = list(_BUILTIN_TOLS) + rules

    def for_path(self, path: str) -> tuple[float, float]:
        rtol, atol = self.rtol, self.atol
        for glob, r, a in self.rules:
            if fnmatch.fnmatch(path, glob):
                rtol, atol = r, a
        return rtol, atol


class Delta:
    """One metric's comparison outcome."""

    __slots__ = ("path", "base", "cur", "rtol", "atol", "ok", "note")

    def __init__(self, path: str, base: Any, cur: Any, rtol: float,
                 atol: float, ok: bool, note: str = ""):
        self.path = path
        self.base = base
        self.cur = cur
        self.rtol = rtol
        self.atol = atol
        self.ok = ok
        self.note = note


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cmp_value(path: str, base: Any, cur: Any, tols: _Tolerances,
               deltas: list[Delta]) -> None:
    if _is_num(base) and _is_num(cur):
        rtol, atol = tols.for_path(path)
        ok = abs(cur - base) <= atol + rtol * abs(base)
        deltas.append(Delta(path, base, cur, rtol, atol, ok))
    elif base != cur:
        deltas.append(Delta(path, base, cur, 0.0, 0.0, False,
                            note="value mismatch"))
    else:
        deltas.append(Delta(path, base, cur, 0.0, 0.0, True))


def _cmp_tree(path: str, base: Any, cur: Any, tols: _Tolerances,
              deltas: list[Delta]) -> None:
    if isinstance(base, dict) and isinstance(cur, dict):
        for k in sorted(set(base) | set(cur)):
            sub = f"{path}.{k}" if path else str(k)
            if k not in base:
                deltas.append(Delta(sub, None, cur[k], 0, 0, True,
                                    note="new metric (no baseline)"))
            elif k not in cur:
                deltas.append(Delta(sub, base[k], None, 0, 0, False,
                                    note="metric disappeared"))
            else:
                _cmp_tree(sub, base[k], cur[k], tols, deltas)
    elif isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            deltas.append(Delta(path, len(base), len(cur), 0, 0, False,
                                note="row count differs"))
            return
        for i, (b, c) in enumerate(zip(base, cur)):
            _cmp_tree(f"{path}[{i}]", b, c, tols, deltas)
    else:
        _cmp_value(path, base, cur, tols, deltas)


def _row_key(row: dict) -> Optional[str]:
    for k in ("size", "msg_size", "label", "stack", "name"):
        if k in row:
            return f"{k}={row[k]}"
    return None


def _cmp_results(base: list, cur: list, tols: _Tolerances,
                 deltas: list[Delta]) -> None:
    """Join result rows on their size/label key when they have one."""
    bkeys = [_row_key(r) for r in base]
    ckeys = [_row_key(r) for r in cur]
    if None in bkeys or None in ckeys or len(set(bkeys)) != len(bkeys):
        _cmp_tree("results", base, cur, tols, deltas)
        return
    bmap = dict(zip(bkeys, base))
    cmap = dict(zip(ckeys, cur))
    for key in bkeys + [k for k in ckeys if k not in bmap]:
        path = f"results[{key}]"
        if key not in cmap:
            deltas.append(Delta(path, "present", None, 0, 0, False,
                                note="row disappeared"))
        elif key not in bmap:
            deltas.append(Delta(path, None, "present", 0, 0, True,
                                note="new row (no baseline)"))
        else:
            _cmp_tree(path, bmap[key], cmap.pop(key), tols, deltas)


def compare_artifacts(base: dict, cur: dict,
                      tols: Optional[_Tolerances] = None) -> list[Delta]:
    """All metric deltas between two artifact documents."""
    tols = tols or _Tolerances(0.05, 1e-9, [])
    deltas: list[Delta] = []
    for field in ("schema", "name"):
        if base.get(field) != cur.get(field):
            deltas.append(Delta(field, base.get(field), cur.get(field),
                                0, 0, False, note="must match exactly"))
    if base.get("params") != cur.get("params"):
        deltas.append(Delta("params", base.get("params"), cur.get("params"),
                            0, 0, False,
                            note="sweep parameters differ — not comparable"))
    _cmp_results(base.get("results", []), cur.get("results", []), tols, deltas)
    for section in ("breakdown", "metrics"):
        if section in base or section in cur:
            _cmp_tree(section, base.get(section, {}), cur.get(section, {}),
                      tols, deltas)
    return deltas


def _fmt(v: Any) -> str:
    if _is_num(v) and isinstance(v, float):
        return f"{v:.4g}"
    s = str(v)
    return s if len(s) <= 24 else s[:21] + "..."


def _report(label: str, deltas: list[Delta], verbose: bool) -> bool:
    bad = [d for d in deltas if not d.ok]
    compared = len(deltas)
    if not bad:
        print(f"{label}: OK ({compared} metrics within tolerance)")
        return True
    print(f"{label}: REGRESSION ({len(bad)} of {compared} metrics out of "
          "tolerance)")
    rows = [("metric", "baseline", "current", "delta", "allowed")]
    for d in bad:
        if _is_num(d.base) and _is_num(d.cur):
            delta = f"{d.cur - d.base:+.4g}"
            allowed = f"±({d.atol:g}+{d.rtol:.0%})"
        else:
            delta = d.note or "mismatch"
            allowed = "exact"
        rows.append((d.path, _fmt(d.base), _fmt(d.cur), delta, allowed))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for i, r in enumerate(rows):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            print("  " + "  ".join("-" * w for w in widths))
    if verbose:
        for d in deltas:
            if d.ok and d.note:
                print(f"  note: {d.path}: {d.note}")
    return False


def _load(path: Path) -> Union[dict, str]:
    """Artifact document, or an error string."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable ({exc})"
    if not isinstance(doc, dict):
        return "not a JSON object"
    return doc


def compare_paths(baseline: Path, current: Path, tols: _Tolerances,
                  verbose: bool = False) -> int:
    """Compare two files, or two directories joined on file name."""
    if baseline.is_dir() != current.is_dir():
        print(f"error: {baseline} and {current} must both be files or both "
              "be directories", file=sys.stderr)
        return 2
    status = 0
    if baseline.is_dir():
        base_files = sorted(baseline.glob("BENCH_*.json"))
        if not base_files:
            print(f"error: no BENCH_*.json under {baseline}", file=sys.stderr)
            return 2
        pairs = [(bf, current / bf.name) for bf in base_files]
        for cf in sorted(current.glob("BENCH_*.json")):
            if not (baseline / cf.name).exists():
                print(f"{cf.name}: new artifact with no baseline "
                      f"(add {baseline / cf.name})")
                status = 1
    else:
        pairs = [(baseline, current)]

    for bf, cf in pairs:
        base = _load(bf)
        if isinstance(base, str):
            print(f"{bf}: {base}")
            status = max(status, 1)
            continue
        if not cf.exists():
            print(f"{bf.name}: current artifact missing ({cf})")
            status = max(status, 1)
            continue
        cur = _load(cf)
        if isinstance(cur, str):
            print(f"{cf}: {cur}")
            status = max(status, 1)
            continue
        problems = validate_artifact(cur)
        if problems:
            print(f"{cf}: current artifact invalid: " + "; ".join(problems))
            status = max(status, 1)
            continue
        deltas = compare_artifacts(base, cur, tols)
        if not _report(bf.name, deltas, verbose):
            status = max(status, 1)
    return status


def _parse_tol(spec: str) -> tuple[str, float, float]:
    glob, _, val = spec.partition("=")
    if not glob or not val:
        raise argparse.ArgumentTypeError(
            f"--tol wants GLOB=RTOL[,ATOL], got {spec!r}")
    rt, _, at = val.partition(",")
    try:
        return glob, float(rt), float(at) if at else 1e-9
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--tol wants numeric RTOL[,ATOL], got {spec!r}") from None


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Diff two benchmark artifacts (or directories of them) "
                    "with per-metric tolerances; non-zero exit on regression.",
    )
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--rtol", type=float, default=0.05,
                    help="default relative tolerance (default 0.05)")
    ap.add_argument("--atol", type=float, default=1e-9,
                    help="default absolute tolerance (default 1e-9)")
    ap.add_argument("--tol", action="append", type=_parse_tol, default=[],
                    metavar="GLOB=RTOL[,ATOL]",
                    help="per-metric override, repeatable, last match wins")
    ap.add_argument("-v", "--verbose", action="store_true")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    tols = _Tolerances(args.rtol, args.atol, args.tol)
    return compare_paths(args.baseline, args.current, tols, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
