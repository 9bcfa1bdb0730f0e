"""Spans around the public functions of every pvrh layer, from outside.

`install` wraps each function listed in LAYERS in every pvrh module
namespace that holds a reference to it, names bound by `from .x import f`
included, so cross-layer calls become child spans. Spans are recorded only
inside an op (`Tracer.op`), kept in memory, and summarised at the end.
Private stages (for example oracle._transport_columns) stay inside the self
time of the public function that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "oracle": ("isomonodromy_drift", "integrate_pv", "direct_monodromy",
               "canonical_frame", "pv_residual"),
    "_highprec": ("drift_pairs_mp", "direct_monodromy_mp"),
    "boutroux_elliptic": ("solve_boutroux", "jacobi_sn", "sn_derivative"),
    "asymptotics": ("formal_series_pv", "eval_trunc", "eval_elliptic",
                    "eval_trig", "build_trunc_family",
                    "build_trunc_nongeneric", "recover_c0",
                    "recover_c0_nongeneric", "phase_shift_x0", "beta0_vhat"),
    "rh_dispatch": ("solve_rh",),
    "mono_core": ("validate_pair", "classify_region", "gauge_normalize"),
    "char_variety": ("char_coords", "fricke_residual"),
    "cli": ("main",),
}

# Accuracy figures read off return values: span name -> (suffix, getter).
EXTRAS: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "oracle.isomonodromy_drift": (("drift_max", lambda r: r.drift),),
    "oracle.canonical_frame": (("defect_max", lambda r: r.defect),),
    "boutroux_elliptic.solve_boutroux": (
        ("residual_max", lambda s: max(abs(v) for v in s.residuals)),
        ("quadrature_error_max", lambda s: s.quadrature_error)),
    "char_variety.fricke_residual": (("abs_max", abs),),
}

ROOT = "op"


def metric_prefix(span_name: str) -> str:
    """Metric names must start with a letter: `_highprec` reads `highprec`."""
    return span_name.lstrip("_")


class Tracer:
    """In-memory span recorder: [name, start, end, parent, op, raised]."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self.extras: Dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; library calls inside it become children."""
        self._op = op_id
        rec = [ROOT, time.perf_counter(), None, None, op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        extras = EXTRAS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None, self._stack[-1], self._op,
                   False]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            for suffix, get in extras:
                key = f"{name}.{suffix}"
                self.extras[key] = max(self.extras.get(key, 0.0),
                                       float(get(out)))
            return out

        return traced

    def self_times(self) -> List[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [rec[2] - rec[1] - child[i] for i, rec in enumerate(self.spans)]

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per-function calls, self time and errors, plus the extras."""
        rows: Dict[str, Dict[str, float]] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                span = f"{layer}.{fname}"
                rows[span] = {"calls": 0, "self_s": 0.0, "errors": 0}
                for suffix, _ in EXTRAS.get(span, ()):
                    rows[span][suffix] = 0.0
        for rec, self_s in zip(self.spans, self.self_times()):
            row = rows.get(rec[0])
            if row is None:
                continue
            row["calls"] += 1
            row["self_s"] += self_s
            row["errors"] += int(rec[5])
        for key, value in self.extras.items():
            span, suffix = key.rsplit(".", 1)
            rows[span][suffix] = value
        return rows

    def coverage_gaps(self) -> List[float]:
        """Per op: root duration minus the summed self times of its spans.

        Spans nest, so the self times of an op's spans add up to its root
        span's duration; a gap shows a span that escaped its parent.
        """
        total: Dict[int, float] = {}
        root: Dict[int, float] = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            total[rec[4]] = total.get(rec[4], 0.0) + self_s
            if rec[0] == ROOT:
                root[rec[4]] = rec[2] - rec[1]
        return [root[op] - total[op] for op in sorted(root)]

    def dump(self) -> Dict:
        return {"fields": ["name", "start_s", "end_s", "parent", "op",
                           "raised"],
                "spans": self.spans}


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function in every pvrh namespace that names it."""
    for layer in LAYERS:
        importlib.import_module(f"pvrh.{layer}")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "pvrh" or name.startswith("pvrh."))]
    for layer, names in LAYERS.items():
        home = sys.modules[f"pvrh.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            traced = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Flat metric name -> value, plus the derived seed acceptance ratio."""
    out: Dict[str, float] = {}
    for span, row in table.items():
        prefix = metric_prefix(span)
        for key, value in row.items():
            out[f"{prefix}.{key}"] = value
    frames = table["oracle.canonical_frame"]["calls"]
    solves = table["oracle.direct_monodromy"]["calls"]
    out["oracle.seed_accept_ratio"] = solves / frames if frames else 0.0
    return out


def per_layer_spec() -> List[Dict[str, str]]:
    """The per_layer entries of BENCHMARK.json, in metric order."""
    spec = []
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "errors": ("count", "lower")}
    for layer, names in LAYERS.items():
        for fname in names:
            span = f"{layer}.{fname}"
            prefix = metric_prefix(span)
            for key, (unit, better) in units.items():
                spec.append({"name": f"{prefix}.{key}", "unit": unit,
                             "better": better})
            for suffix, _ in EXTRAS.get(span, ()):
                spec.append({"name": f"{prefix}.{suffix}", "unit": "abs",
                             "better": "lower"})
    spec.append({"name": "oracle.seed_accept_ratio", "unit": "ratio",
                 "better": "higher"})
    spec.append({"name": "trace.overhead_share", "unit": "ratio",
                 "better": "lower"})
    return spec

