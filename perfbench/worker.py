"""One measuring process of the pvrh benchmark; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode measure \
        (--seconds S | --prefix) [--trace-out PATH]

Both modes import pvrh (scipy and mpmath included), build the workload and
its first input, and print "ready". `setup` then exits; `measure` runs the
closed loop and prints one JSON record as its last line. With --seconds the
loop starts ops until S seconds have passed and then ends at the next whole
window of ops, never before the workload's prefix ops are done; with
--prefix it makes exactly those ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Digits past double roundoff are not resolved; a zero error reads as this.
ERROR_FLOOR = 1e-17


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--prefix", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import pvrh._highprec  # noqa: F401  (lazy in the library; part of set-up)
    import pvrh.cli  # noqa: F401
    from spans import Tracer, install
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload](args.seed)
    first = workload.op_input(0)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)

    prefix = workload.prefix_ops
    digest = hashlib.sha256()
    op_s, failures = [], []
    worst = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        if i >= prefix and i % workload.window_ops == 0 and (
                args.prefix or time.perf_counter() - start >= args.seconds):
            break
        inp = first if i == 0 else workload.op_input(i)
        if i < prefix:
            digest.update(workload.describe(inp).encode())
        figure = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                figure = workload.run_op(inp)
            else:
                with tracer.op(i):
                    figure = workload.run_op(inp)
        except CheckFailed as exc:
            failures.append([i, str(exc)])
            figure = exc.figure
        except Exception as exc:  # an op that raises is a failed op
            failures.append([i, f"{type(exc).__name__}: {exc}"])
        op_s.append(time.perf_counter() - t0)
        if i < prefix and figure is not None:
            worst = max(worst, figure)
        i += 1

    record = {
        "workload": args.workload, "seed": args.seed, "ops": len(op_s),
        "prefix_ops": prefix, "window_ops": workload.window_ops,
        "op_s": op_s, "failures": failures,
        "accuracy_digits": -math.log10(max(worst, ERROR_FLOOR)),
        "inputs_sha256": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _versions(),
    }
    if tracer is not None:
        table = tracer.table()
        gaps = tracer.coverage_gaps()
        record["table"] = table
        record["coverage_gap_max_s"] = max((abs(g) for g in gaps), default=0.0)
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "table": table, **tracer.dump()}, fh)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
