#!/usr/bin/env python3
"""sdbp_inspect's single-run summary must report the run's measured
figures: the IPC and LLC MPKI it prints for one cell equal the ones
the sweep table prints for the same cell (RunResult::ipc / ::mpki).

    inspect_summary_test.py --binary build/tools/sdbp_inspect
"""

import argparse
import subprocess
import sys

BUDGET = ["--warmup", "1000000", "--instructions", "1000000"]


def run(binary, *args):
    out = subprocess.run([binary, *args, *BUDGET], check=True,
                         capture_output=True, text=True).stdout
    return [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in out.splitlines() if line.startswith("| ")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True)
    args = ap.parse_args()

    summary = {row[0]: row[1]
               for row in run(args.binary, "-b", "hmmer", "-p", "Sampler")
               if len(row) == 2}
    sweep = run(args.binary, "-b", "hmmer", "-p", "LRU,Sampler",
                "-j", "1")
    header = sweep[0]
    cell = next(dict(zip(header, row)) for row in sweep[1:]
                if row[header.index("Policy")] == "Sampler")

    failures = [f"{name}: summary {summary.get(name)} != sweep "
                f"{cell[col]}"
                for name, col in (("IPC", "IPC"), ("LLC MPKI", "MPKI"))
                if summary.get(name) != cell[col]]
    for f in failures:
        print("FAIL " + f)
    if not failures:
        print(f"ok: IPC {cell['IPC']}, MPKI {cell['MPKI']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
