"""One-shot reproduction report: every table and figure, shape-checked.

Run ``python -m repro.bench.report`` (add ``--fast`` for a reduced
sweep, and figure names such as ``fig13 rma`` to print only those).
Prints each figure as a table followed by its shape check and finishes
with a verdict summary — the executable version of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import FIGURES, print_table, rows

__all__ = ["main"]


def main(argv=None) -> int:
    paper = [name for name, fig in FIGURES.items() if fig.paper]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced size sweeps (~4x faster)")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"figures to print: {', '.join(FIGURES)} "
                             f"(default: {' '.join(paper)})")
    args = parser.parse_args(argv)
    if not set(args.names) <= FIGURES.keys():
        parser.error(f"figures are {', '.join(FIGURES)}")

    verdicts: dict[str, list[str]] = {}
    for name in args.names or paper:
        fig = FIGURES[name]
        data = rows(name, fig.fast if args.fast else fig.full)
        for series in fig.series:
            print_table(series.title, series.columns,
                        data[series.key] if series.key else data)
        verdicts[name] = fig.check(data)
        print("shape check:", "OK" if not verdicts[name] else verdicts[name])

    print("\n================ reproduction verdict ================")
    ok = True
    for name, problems in verdicts.items():
        status = "REPRODUCED" if not problems else f"DEVIATES: {problems}"
        ok &= not problems
        print(f"  {name:6s}  {status}")
    print("======================================================")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
