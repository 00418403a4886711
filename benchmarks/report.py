"""Print the end-to-end metrics of every workload in one table.

    python3 benchmarks/report.py [--seed N] [--seconds S]

Runs ``benchmarks/run.py`` once per workload, untraced, from the checkout
root, and prints each metric by name with its unit, plus the failed share
that ``ok_share`` complements.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    args = ap.parse_args(argv)
    rows = {}
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", "0"],
                             capture_output=True, text=True)
        if out.returncode != 0:
            print(f"{workload}: benchmark failed\n{out.stderr}", file=sys.stderr)
            return 1
        rows[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':16s} {'unit':6s}" + "".join(f"{w:>20s}" for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:16s} {unit:6s}" + "".join(f"{rows[w]['metrics'][name]['value']:>20.6g}"
                                               for w in WORKLOADS))
    print(f"{'failed_share':16s} {'share':6s}" + "".join(
        f"{rows[w]['failed'] / rows[w]['attempted']:>20.6g}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
