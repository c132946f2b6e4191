#!/usr/bin/env python3
"""Run the verification battery and print one JSON line per report, with its time.

Every suite at one size shares that size's flip table (graphs.run_battery).

Example:
    python scripts/run_verification.py --n 5
    python scripts/run_verification.py --n 6 --suites ref1,fibers
"""

import argparse
import json
import sys

from flipforge.graphs import SUITES, run_battery


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5, help="largest size to audit")
    parser.add_argument("--suites", default="all",
                        help="comma list from %s or 'all'" % ",".join(SUITES))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized homogeneous audit")
    args = parser.parse_args()

    names = list(SUITES) if args.suites == "all" else args.suites.split(",")
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        parser.error(f"unknown suites: {unknown}")
    try:
        results = run_battery(tuple(names), args.n, args.seed)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    all_ok = True
    for report, seconds in results:
        all_ok = all_ok and report["pass"]
        print(json.dumps({"suite": report["suite"], "n": report["n"], "pass": report["pass"],
                          "seconds": round(seconds, 3), "report": report},
                         sort_keys=True))
    print(json.dumps({"suites": names, "max_n": args.n, "pass": all_ok},
                     sort_keys=True))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
