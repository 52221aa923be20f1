#!/usr/bin/env python3
"""Run every named experiment with its defaults and print the claims table.

Each check prints its value, PASS/FAIL, requirement and margin (how far
inside its bound the value lies; ``-`` for checks without a numeric bound).

Usage: python scripts/reproduce_all.py [output_dir] [--svg]

Exit status 0 only if every check of every experiment passed.
"""

import json
import sys
import time
from pathlib import Path

from memstress.experiments import EXPERIMENTS, ExperimentConfig, run


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--svg"]
    svg = "--svg" in sys.argv[1:]
    out_root = Path(args[0]) if args else Path("results")
    failures = 0
    for name in sorted(EXPERIMENTS):
        started = time.perf_counter()
        code = run(ExperimentConfig(experiment=name, output_dir=str(out_root), svg=svg))
        elapsed = time.perf_counter() - started
        summary = json.loads(
            (out_root / f"{name.replace('-', '_')}_summary.json").read_text()
        )
        for check in summary["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            # non-finite numbers are stored as the strings float() reads back
            margin = "-" if check["margin"] is None else f"{float(check['margin']):+.4e}"
            print(f"{name:18s} {check['name']:32s} {float(check['value']):+.4e}  "
                  f"{status}  [{check['requirement']}]  margin {margin}")
        print(f"{name:18s} {'(exit ' + str(code) + ')':32s} {elapsed:>11.1f}s")
        failures += 0 if code == 0 else 1
    print(f"\n{len(EXPERIMENTS) - failures}/{len(EXPERIMENTS)} experiments fully passed")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
