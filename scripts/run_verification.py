#!/usr/bin/env python3
"""Run the verification battery and print one JSON line per report, with its time.

Example:
    python scripts/run_verification.py --n 5
    python scripts/run_verification.py --n 6 --suites ref1,fibers
"""

import argparse
import json
import sys
import time

from flipforge.graphs import SUITES, check_battery_size, run_suite


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
        check_battery_size(args.n)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    all_ok = True
    for name in names:
        for n in range(1, args.n + 1):
            t0 = time.monotonic()
            report = run_suite(name, n, args.seed)
            seconds = time.monotonic() - t0
            all_ok = all_ok and report["pass"]
            print(json.dumps({"suite": name, "n": n, "pass": report["pass"],
                              "seconds": round(seconds, 3), "report": report},
                             sort_keys=True))
    print(json.dumps({"suites": names, "max_n": args.n, "pass": all_ok},
                     sort_keys=True))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
