#!/usr/bin/env python3
"""Explore primitive trinomial existence across exponent families.

First checks the three exponent families that should admit no witnesses
beyond small exceptional primes, printing any violations together with the
frozen exception list. Then runs censuses for three named trinomial shapes:

  fibonacci   x^2 - x - 1   tracks the Fibonacci-primitive-root census
  artin       2x - 1        tracks primes with 2 as a primitive root
  cyclotomic  x + 1/x - 1   forces order 6, so only p in {3, 7} qualify
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from costaskit.cli import worker_count, write_census_csv
from costaskit.density import ExpExpr, trinomial_census, verify_zero_density_claims

SHAPES = {
    "fibonacci": (ExpExpr(2), ExpExpr(1, 1)),
    "artin": (ExpExpr(1), ExpExpr(1)),
    "cyclotomic": (ExpExpr(1), ExpExpr(-1, 2)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=10**4)
    parser.add_argument("--i-max", type=int, default=5)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    try:
        workers = worker_count(args.workers)
        report = verify_zero_density_claims(args.limit, i_max=args.i_max)
        censuses = {shape: trinomial_census(args.limit, e1, e2, workers=workers)
                    for shape, (e1, e2) in SHAPES.items()}
    except ValueError as e:
        sys.exit(f"{parser.prog}: {e}")

    print(f"zero-density families up to {report.limit}, i <= {report.i_max}")
    for name in sorted(report.thresholds):
        bounds = ", ".join(str(t) for t in report.thresholds[name])
        print(f"  family {name}: witness-free beyond p = {bounds}")
    if report.violations:
        print(f"  VIOLATIONS ({len(report.violations)}):")
        for name, p, i, w in report.violations:
            print(f"    family {name}, i={i}, p={p}, witness {w}")
    else:
        print("  no violations")
    print(f"  exceptional primes within threshold: {len(report.exceptions)}")
    for name, p, i, w in report.exceptions:
        print(f"    family {name}, i={i}, p={p}, witness {w}")
    print(f"  out-of-range primes skipped: {report.skipped}")

    print()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for shape, census in censuses.items():
        path = args.out_dir / f"trinomial_{shape}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_census_csv(fh, census.rows)
        last = census.rows[-1]
        print(f"{shape:>10}: count {last.count} of pi({last.x}) = {last.pi_x}, "
              f"ratio {last.ratio:.6f}, predicted {last.predicted:.6f}, "
              f"skipped {census.skipped} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
