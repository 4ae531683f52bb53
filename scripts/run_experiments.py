"""Full experiment driver: regenerates every figure over all datasets.

Writes each table to ``benchmarks/results/full_figN.txt`` and a combined
report to ``benchmarks/results/full_report.txt``. This is the full run,
with the ``full`` arguments of the one figure registry
(:data:`repro.bench.figures.FIGURES`); ``repro figure`` and
``benchmarks/bench_figures.py`` run its ``reduced`` arguments.

Usage:  python scripts/run_experiments.py [--fast]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.figures import FAST_DATASETS, FIGURES

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="small datasets only")
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    report: list[str] = []
    for name, (driver, _reduced, full) in FIGURES.items():
        kwargs = dict(full)
        if args.fast and "datasets" in kwargs:
            kwargs["datasets"] = FAST_DATASETS
        start = time.time()
        result = driver(num_slides=2, **kwargs)
        table = result.table()
        elapsed = time.time() - start
        print(f"\n{table}\n[{name} regenerated in {elapsed:.1f}s]", flush=True)
        (RESULTS / f"full_{name}.txt").write_text(table + "\n")
        report.append(table)
        report.append(f"[{name} regenerated in {elapsed:.1f}s]\n")
    (RESULTS / "full_report.txt").write_text("\n".join(report))
    print(f"\nwrote {RESULTS}/full_report.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
