#!/usr/bin/env python3
"""Survey exceptional-modulus counts across x and threshold strength A.

For each x the moduli are the prime powers in [Q, 2Q), with Q the largest
integer such that Q^40 <= x^9; a modulus is flagged when its worst
progression error E*(x, q) exceeds x / (phi(q) (log x)^A). Emits a CSV
of (x, A, Q, set size, exceptional count, max observed ratio) and prints
a table.
"""

import argparse
import csv

from bvlab.arith import DEFAULT_LIMIT_CEILING, build_tables, enumerate_moduli_set
from bvlab.progressions import LEAST_X, exception_scan, max_modulus, threshold_scale


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--x-values", type=int, nargs="+",
                    default=[10**4, 10**5, 10**6])
    ap.add_argument("--a-values", type=float, nargs="+",
                    default=[0.5, 1.0, 2.0, 3.0])
    ap.add_argument("--out", default="exception_survey.csv")
    args = ap.parse_args()
    if min(args.x_values) < LEAST_X:
        # a moduli set needs Q = max_modulus(x) >= 3
        ap.error(f"every x must be at least {LEAST_X}, got {min(args.x_values)}")
    if max(args.x_values) > DEFAULT_LIMIT_CEILING:
        # the sieve behind E*(x, q) stops at this ceiling
        ap.error(f"every x must be at most {DEFAULT_LIMIT_CEILING}, "
                 f"got {max(args.x_values)}")
    for x in args.x_values:
        for A in args.a_values:
            try:
                threshold_scale(x, max_modulus(x), A)
            except ValueError as exc:
                ap.error(str(exc))

    tables = build_tables(max(args.x_values))
    rows = []
    for x in args.x_values:
        Q = max_modulus(x)
        S = enumerate_moduli_set(Q, "prime-powers")
        for A in args.a_values:
            _, summary = exception_scan(float(x), Q, A, S, tables)
            rows.append({
                "x": x, "A": A, "Q": Q, "set_size": len(S.members),
                "exceptional": summary["count_exceptional"],
                "max_ratio": f"{summary['max_ratio']:.6f}",
            })
            print(f"x={x:>9} A={A:>4} Q={Q:>4} |S|={len(S.members):>3} "
                  f"exceptional={summary['count_exceptional']:>3} "
                  f"max_ratio={summary['max_ratio']:.4f}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
