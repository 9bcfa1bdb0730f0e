"""The benchmark's own checks, run from the root of a checkout:

    python3 perfbench/selfcheck.py --workload NAME --seed N

Makes the workload's prefix ops twice, traced, each in a fresh interpreter,
and checks that the two runs drew identical inputs, made identical calls
into every layer function and reached identical accuracy_digits, and that
in every op the root span equals the summed self times of its spans.
Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import COVERAGE_TOL_S, DEADLINE_S, TRACE_DIR, WORKLOADS, Worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--mode", "measure", "--prefix", "--trace-out"]
    recs = []
    for k in range(2):
        out = TRACE_DIR / f"selfcheck-{args.workload}-seed{args.seed}-{k}.json"
        deadline = time.perf_counter() + DEADLINE_S
        recs.append(Worker(base + [str(out)], deadline).result())
    first, second = recs
    calls = [{name: row["calls"] for name, row in rec["table"].items()}
             for rec in recs]
    checks = [
        ("identical inputs",
         first["inputs_sha256"] == second["inputs_sha256"]),
        ("identical .calls for every layer function", calls[0] == calls[1]),
        ("identical accuracy_digits",
         first["accuracy_digits"] == second["accuracy_digits"]),
        ("root spans equal their summed self times",
         max(r["coverage_gap_max_s"] for r in recs) <= COVERAGE_TOL_S),
    ]
    for what, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {args.workload} seed "
              f"{args.seed}: {what}")
    print(f"ops {first['ops']}, calls {sum(calls[0].values())}, "
          f"accuracy_digits {first['accuracy_digits']:.6g}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
