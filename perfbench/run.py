"""Benchmark of the pvrh bridge, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics: set-up is measured in
SETUP_SAMPLES fresh interpreters (median), then one fresh interpreter runs
the workload's closed loop for S seconds. --trace 1 runs the workload's
prefix ops twice in fresh interpreters, untraced and then with every layer
function wrapped in spans, and prints the per-layer metrics and the tracing
overhead; the spans and the per-layer table go to .bench_trace/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it name every metric with
its unit, the sample counts, each failed op, and the Python, numpy, scipy
and mpmath versions and nproc of the run.

Every child process gets OMP/OPENBLAS/MKL_NUM_THREADS=1, PYTHONPATH set to
the checkout's src/ and no PVRH_TOL. Only the standard library is imported
here, so the thread settings reach numpy before it loads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from spans import layer_metrics, per_layer_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
TRACE_DIR = ROOT / ".bench_trace"
WORKLOADS = ("verify_double", "verify_mp", "forward_sweep", "ray_table")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# Self times of an op's spans add up to its root span up to float rounding.
COVERAGE_TOL_S = 1e-6

END_TO_END_UNITS = {
    "ops_per_s": "ops/s", "op_s_p50": "s", "op_s_p90": "s", "setup_s": "s",
    "ok_share": "ratio", "accuracy_digits": "digits", "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PVRH_TOL", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


class Worker:
    """A worker process; `setup_s` is the time until it printed "ready"."""

    def __init__(self, args: List[str], deadline: float):
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)] + args, cwd=str(ROOT),
            env=_child_env(), stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise BenchError(f"worker did not start (exit {self.proc.returncode})")

    def wait(self) -> str:
        """The worker's remaining standard output, once it exited with 0."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.close()
            raise BenchError("worker passed the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exit {self.proc.returncode}")
        return out

    def result(self) -> Dict:
        return json.loads(self.wait().strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def windowed_rate(op_s: List[float], window: int) -> float:
    """Median over the run's whole windows of `window` ops of ops per second."""
    return statistics.median(window / sum(op_s[i:i + window])
                             for i in range(0, len(op_s), window))


def end_to_end(base: List[str], seconds: int, deadline: float
               ) -> Tuple[Dict, Dict[str, float]]:
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker(base + ["--mode", "setup"], deadline)
        setup.append(probe.setup_s)
        probe.wait()
    run = Worker(base + ["--mode", "measure", "--seconds", str(seconds)],
                 deadline)
    setup.append(run.setup_s)
    rec = run.result()
    op_s = rec["op_s"]
    metrics = {
        "ops_per_s": windowed_rate(op_s, rec["window_ops"]),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": statistics.quantiles(op_s, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
        "ok_share": 1.0 - len(rec["failures"]) / len(op_s),
        "accuracy_digits": rec["accuracy_digits"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    rec["setup_samples_s"] = setup
    return rec, metrics


def per_layer(base: List[str], out: Path, deadline: float
              ) -> Tuple[Dict, Dict[str, float]]:
    rec0 = Worker(base + ["--mode", "measure", "--prefix"], deadline).result()
    rec = Worker(base + ["--mode", "measure", "--prefix", "--trace-out",
                         str(out)], deadline).result()
    rate0 = windowed_rate(rec0["op_s"], rec0["window_ops"])
    rate1 = windowed_rate(rec["op_s"], rec["window_ops"])
    metrics = layer_metrics(rec["table"])
    metrics["trace.overhead_share"] = 1.0 - rate1 / rate0
    problems = []
    if rec["coverage_gap_max_s"] > COVERAGE_TOL_S:
        problems.append(f"root spans miss {rec['coverage_gap_max_s']:.3e} s "
                        "of their summed self times")
    for key in ("inputs_sha256", "accuracy_digits"):
        if rec0[key] != rec[key]:
            problems.append(f"{key} differs between the untraced and the "
                            "traced run")
    rec["problems"] = problems
    rec["untraced_ops_per_s"] = rate0
    rec["traced_ops_per_s"] = rate1
    return rec, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pvrh" / "__init__.py").is_file():
        print(f"no pvrh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            out = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
            rec, values = per_layer(base, out, deadline)
            spec = per_layer_spec()
            metrics = {m["name"]: values[m["name"]] for m in spec}
            units = {m["name"]: m["unit"] for m in spec}
        else:
            rec, metrics = end_to_end(base, args.seconds, deadline)
            units = END_TO_END_UNITS
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = rec["failures"]
    problems = rec.get("problems", [])
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops = {rec['ops']} (accuracy over the first {rec['prefix_ops']}); "
          f"fail_share = {len(failures) / rec['ops']:.6g} ratio")
    if "setup_samples_s" in rec:
        print("setup samples s = " + ", ".join(
            f"{v:.4f}" for v in rec["setup_samples_s"]))
    if args.trace:
        print(f"ops_per_s untraced {rec['untraced_ops_per_s']:.6g}, traced "
              f"{rec['traced_ops_per_s']:.6g}; spans in "
              f"{out.relative_to(ROOT)}")
    for i, why in failures:
        print(f"failed op {i}: {why}")
    for why in problems:
        print(f"benchmark check failed: {why}")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": rec["ops"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
