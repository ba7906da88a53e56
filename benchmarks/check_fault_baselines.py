"""Gate fault-campaign JSON against the committed baselines, exactly.

Usage (from the repository root)::

    python benchmarks/check_fault_baselines.py benchmarks/baselines/faults DIR

Every ``*.json`` file in the baseline directory (``python -m
repro.faults ... --json`` output: one record per cell) must exist in
``DIR`` and match it exactly.  Each cell that differs is named by plan,
workload, stack and seed, with the fields that moved.  The campaign is
deterministic and its output does not depend on ``--jobs``, so any
difference is a change in the fault or recovery schedule.

Exit status: 0 everything matches, 1 a difference, 2 usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def cell_name(cell: dict) -> str:
    return (f"{cell['plan']}/{cell['workload']}/{cell['stack']}"
            f"/seed={cell['seed']}")


def compare_cells(base: list[dict], cur: list[dict]) -> list[str]:
    """One line per cell that is missing, extra or different."""
    b = {cell_name(c): c for c in base}
    c = {cell_name(x): x for x in cur}
    problems = [f"{k}: missing" for k in b if k not in c]
    problems += [f"{k}: not in the baseline" for k in c if k not in b]
    for k in b.keys() & c.keys():
        moved = [f"{f} {b[k].get(f)!r} -> {c[k].get(f)!r}"
                 for f in sorted(b[k].keys() | c[k].keys())
                 if b[k].get(f) != c[k].get(f)]
        if moved:
            problems.append(f"{k}: " + ", ".join(moved))
    if not problems and base != cur:
        problems.append("cells in a different order")
    return sorted(problems)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, cur_dir = map(Path, argv)
    names = sorted(p.name for p in base_dir.glob("*.json"))
    if not names:
        print(f"no baselines in {base_dir}", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        cur_path = cur_dir / name
        if not cur_path.exists():
            print(f"{name}: not regenerated")
            failed = True
            continue
        problems = compare_cells(json.loads((base_dir / name).read_text()),
                                 json.loads(cur_path.read_text()))
        print(f"{name}: {'OK' if not problems else 'DIFFERS'}")
        for line in problems:
            print(f"  {line}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
