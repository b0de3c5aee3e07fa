#!/usr/bin/env python3
"""Run the applicability censuses and compare them with the predicted densities.

Writes census_t4.csv and census_g4.csv into the output directory and prints
a summary table. The two final ratios should approach (27/38) A and (9/38) A
for the partial Artin constant A, so their quotient should sit near 3.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from costaskit.cli import worker_count, write_census_csv
from costaskit.density import census_g4, census_t4, predicted_constants


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=10**6)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    try:
        workers = worker_count(args.workers)
        t4 = census_t4(args.limit, workers=workers)
        g4 = census_g4(args.limit, workers=workers)
    except ValueError as e:
        sys.exit(f"{parser.prog}: {e}")
    c = predicted_constants()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in (("census_t4.csv", t4), ("census_g4.csv", g4)):
        with open(args.out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            write_census_csv(fh, rows)

    print(f"partial Artin constant: {c.artin:.10f}")
    print(f"{'x':>10} {'t4':>8} {'t4 ratio':>9} {'g4':>8} {'g4 ratio':>9} {'t4/g4':>7}")
    for rt, rg in zip(t4, g4):
        quot = rt.count / rg.count if rg.count else float("nan")
        print(f"{rt.x:>10} {rt.count:>8} {rt.ratio:>9.6f} "
              f"{rg.count:>8} {rg.ratio:>9.6f} {quot:>7.4f}")
    print(f"{'predicted':>10} {'':>8} {c.t4_density:>9.6f} "
          f"{'':>8} {c.g4_density:>9.6f} {c.ratio:>7.4f}")
    print(f"wrote {args.out_dir}/census_t4.csv and {args.out_dir}/census_g4.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
