"""Command-line surface over the library: stable JSON in, stable JSON out.

Every subcommand reads inline JSON, a file path, or "-" (stdin), dispatches
to the owning module, and prints a single JSON envelope. Output is
deterministic: keys are sorted, floats print at 17 significant digits,
complex scalars are [re, im] arrays, angles are radians. Exit codes:
0 success, 1 malformed input, 2 validation failure, 3 numeric
non-convergence. Failures print {code, message, location} envelopes.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import errors
from .asymptotics import (
    AsymptoticDescriptor,
    eval_elliptic,
    eval_trig,
    eval_trunc,
    formal_series_pv,
    phase_shift_breve,
    phase_shift_x0,
    series_order_bounds,
    series_tag_for,
)
from .boutroux_elliptic import solve_boutroux
from .char_variety import char_coords, fricke_residual
from .mono_core import (
    FamilyElement,
    MonodromyPair,
    ThetaTriple,
    apply_operator,
    classify_region,
    gauge_normalize,
    pair_from_json_obj,
    pair_to_json_obj,
    validate_pair,
)
from .oracle import integrate_pv, isomonodromy_drift, zfrak_from_y_yprime
from .rh_dispatch import (
    continuation_plan,
    region_emptiness,
    solve_rh,
    theta_conditions,
)

SCHEMA_VERSION = "1.0.0"

_MALFORMED = 1
_VALIDATION = 2
_NUMERIC = 3

# Failures of an iteration or a step-size control, as opposed to inputs
# that are structurally fine but violate a domain constraint.
_NUMERIC_ERRORS = (
    errors.NoConvergence,
    errors.ToleranceFailure,
    errors.SeedDefectTooLarge,
    errors.GridTooCoarse,
    errors.HitSingularity,
    errors.LoopHitsSingularity,
    errors.DegenerateLattice,
)

_OP_TAGS = ("m", "s0", "s1", "shat0", "shat1")
# the --kind of `eval` that a descriptor's variant takes
_KIND_OF = {"Elliptic": "elliptic", "Trig": "trig"}


class CliFailure(Exception):
    """Carries the machine-readable error envelope and the exit status."""

    def __init__(self, status: int, code: str, message: str, location: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.location = location


# ---------------------------------------------------------------------------
# deterministic JSON emission

def _num(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise errors.NoConvergence("non-finite value reached the output")
    if v == 0.0:
        v = 0.0  # collapse negative zero
    return "%.17g" % v


def _write_value(value: Any, out: List[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_num(value))
    elif isinstance(value, complex):
        out.append("[%s,%s]" % (_num(value.real), _num(value.imag)))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write_value(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write_value(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(value: Any) -> str:
    out: List[str] = []
    _write_value(value, out)
    return "".join(out)


def _emit(payload: Dict[str, Any]) -> None:
    body = dict(payload)
    body["schema"] = SCHEMA_VERSION
    sys.stdout.write(dumps_canonical(body) + "\n")


def _write_csv(path: str, header: Sequence[str],
               rows: Sequence[Sequence[float]]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_num(v) for v in row) + "\n")
    except OSError as exc:
        raise CliFailure(_MALFORMED, "unwritable-plot", str(exc),
                         "--emit-plot") from exc


# ---------------------------------------------------------------------------
# input parsing

def _read_json(source: str, location: str) -> Any:
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliFailure(_MALFORMED, "unreadable-input", str(exc),
                             location) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliFailure(_MALFORMED, "bad-json", str(exc), location) from exc


def _default_tol() -> float:
    raw = os.environ.get("PVRH_TOL")
    if raw is None:
        return 1e-9
    try:
        val = float(raw)
    except ValueError:
        raise CliFailure(_MALFORMED, "bad-tolerance",
                         f"PVRH_TOL is not a number: {raw!r}",
                         "env:PVRH_TOL") from None
    if val <= 0.0:
        raise CliFailure(_MALFORMED, "bad-tolerance",
                         "PVRH_TOL must be positive", "env:PVRH_TOL")
    return val


def _parse_complex(text: str, location: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CliFailure(_MALFORMED, "bad-complex",
                     f"expected 're' or 're,im', got {text!r}", location)


def _parse_theta(text: str) -> ThetaTriple:
    from fractions import Fraction

    parts = text.split(",")
    if len(parts) != 3:
        raise CliFailure(_MALFORMED, "bad-theta",
                         f"expected three comma-separated values, got {text!r}",
                         "--theta")
    vals = []
    for part in parts:
        part = part.strip()
        try:
            if "/" in part:
                vals.append(Fraction(part))
            else:
                vals.append(float(part))
        except (ValueError, ZeroDivisionError):
            raise CliFailure(_MALFORMED, "bad-theta",
                             f"not a number: {part!r}", "--theta") from None
    return ThetaTriple(vals[0], vals[1], vals[2])


def _load_pair(source: str, tol: float) -> MonodromyPair:
    obj = _read_json(source, "pair")
    try:
        pair = pair_from_json_obj(obj, tol)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliFailure(
            _MALFORMED, "bad-pair-schema",
            f"pair JSON needs theta/m0/m1 with [re,im] scalars ({exc})",
            "pair") from exc
    report = validate_pair(pair.m0, pair.m1, pair.theta, tol)
    if not report.ok:
        worst = max(report.residuals.values())
        raise CliFailure(
            _VALIDATION, "invalid-pair",
            f"pair violates its defining constraints "
            f"(worst residual {worst:.3e}, tol {tol:.1e})", "pair")
    return pair


def _real_if_possible(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else z


def descriptor_to_json_obj(d: AsymptoticDescriptor) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for key, val in d.params.items():
        params[key] = val if isinstance(val, str) else complex(val)
    return {
        "variant": d.variant,
        "theta": [complex(d.theta.theta0), complex(d.theta.theta1),
                  complex(d.theta.thetaInf)],
        "params": params,
        "sector": [float(d.sector[0]), float(d.sector[1])],
        "sector_closed": [bool(d.sector_closed[0]), bool(d.sector_closed[1])],
        "case": int(d.case),
        "nu": int(d.nu),
    }


def descriptor_from_json_obj(obj: Dict[str, Any]) -> AsymptoticDescriptor:
    def cx(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, float)):
            return complex(v)
        return complex(v[0], v[1])

    try:
        t0, t1, ti = (_real_if_possible(cx(v)) for v in obj["theta"])
        params = {str(k): cx(v) for k, v in obj["params"].items()}
        sec = obj["sector"]
        closed = obj.get("sector_closed", [False, False])
        return AsymptoticDescriptor(
            variant=str(obj["variant"]),
            params=params,
            sector=(float(sec[0]), float(sec[1])),
            theta=ThetaTriple(t0, t1, ti),
            sector_closed=(bool(closed[0]), bool(closed[1])),
            case=int(obj.get("case", 0)),
            nu=int(obj.get("nu", 0)),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliFailure(
            _MALFORMED, "bad-descriptor-schema",
            f"descriptor JSON needs variant/theta/params/sector ({exc})",
            "descriptor") from exc


def _load_descriptor(source: str) -> AsymptoticDescriptor:
    obj = _read_json(source, "descriptor")
    if not isinstance(obj, dict):
        raise CliFailure(_MALFORMED, "bad-descriptor-schema",
                         "descriptor JSON must be an object", "descriptor")
    obj = {k: v for k, v in obj.items() if k != "schema"}
    return descriptor_from_json_obj(obj)


# ---------------------------------------------------------------------------
# family evaluation shared by `eval` and `verify`

def _ray_derivative(f: Callable[[complex], complex], x: complex) -> complex:
    """Fourth-order central difference along the ray through x."""
    h = 1e-3 * max(1.0, abs(x))
    e = x / abs(x) if x != 0 else 1.0 + 0.0j
    he = h * e
    return (8.0 * (f(x + he) - f(x - he)) - (f(x + 2.0 * he) - f(x - 2.0 * he))) \
        / (12.0 * he)


def _family_y(kind: str, d: AsymptoticDescriptor,
              order: int) -> Callable[[complex], complex]:
    """y of the family along any point, the formal series built once."""
    if kind == "elliptic":
        if d.variant != "Elliptic":
            raise CliFailure(_VALIDATION, "kind-mismatch",
                             f"descriptor variant {d.variant!r} is not elliptic",
                             "--kind")
        return lambda xx: eval_elliptic(xx, d, solve_boutroux(cmath.phase(xx)))[0]
    if kind == "trig":
        if d.variant != "Trig":
            raise CliFailure(_VALIDATION, "kind-mismatch",
                             f"descriptor variant {d.variant!r} is not trig",
                             "--kind")
        return lambda xx: eval_trig(xx, d)
    tag = series_tag_for(d)
    lo, hi = series_order_bounds(tag)
    if not lo <= order <= hi:
        raise CliFailure(_VALIDATION, "bad-order",
                         f"the {tag} series takes orders {lo} to {hi}, not {order}",
                         "--order")
    series = formal_series_pv(tag, d.theta, order)
    return lambda xx: eval_trunc(xx, d, series)


def _envelope_at(kind: str, d: AsymptoticDescriptor, x: complex,
                 y_of: Callable[[complex], complex]
                 ) -> Tuple[complex, complex, complex]:
    """(y, y', zfrak) at x; y' is the elliptic closed form or, for the
    other kinds, the difference quotient of y_of along the ray."""
    if kind == "elliptic":
        return eval_elliptic(x, d, solve_boutroux(cmath.phase(x)))
    y = y_of(x)
    yp = _ray_derivative(y_of, x)
    z = zfrak_from_y_yprime(d.theta, x, y, yp)
    return y, yp, z


def _eval_family(kind: str, d: AsymptoticDescriptor, x: complex,
                 order: int) -> Tuple[complex, complex, complex]:
    return _envelope_at(kind, d, x, _family_y(kind, d, order))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args) -> int:
    pair = _load_pair(args.pair, args.tol)
    region = classify_region(pair, zero_tol=args.tol)
    _emit({"region": region.tag, "coords": dict(region.coords)})
    return 0


def _cmd_fricke(args) -> int:
    pair = _load_pair(args.pair, args.tol)
    point = char_coords(pair)
    _emit({
        "point": [point.x0, point.x1, point.x2],
        "residual": complex(fricke_residual(point)),
        "ambient": list(point.ambient),
    })
    return 0


def _cmd_boutroux(args) -> int:
    sol = solve_boutroux(args.phi)
    if args.emit_plot:
        grid = max(2, args.grid)
        lo, hi = (0.0, args.phi) if args.phi != 0.0 else (0.0, 0.5 * math.pi)
        rows = []
        for i in range(grid):
            phi_i = lo + (hi - lo) * i / (grid - 1)
            a_i = solve_boutroux(phi_i).A
            rows.append((phi_i, a_i.real, a_i.imag))
        _write_csv(args.emit_plot, ("phi", "reA", "imA"), rows)
    _emit({
        "phi": float(args.phi),
        "A": complex(sol.A),
        "omegaA": None if sol.omegaA is None else complex(sol.omegaA),
        "omegaB": None if sol.omegaB is None else complex(sol.omegaB),
        "residuals": [float(r) for r in sol.residuals],
        "quadrature_error": float(sol.quadrature_error),
    })
    return 0


def _cmd_phase_shift(args) -> int:
    pair = _load_pair(args.pair, args.tol)
    sol = solve_boutroux(args.phi)
    if args.route == "breve":
        shift = phase_shift_breve(pair, args.phi, sol)
    else:
        shift = phase_shift_x0(pair, args.phi, sol)
    _emit({
        "phi": float(args.phi),
        "route": args.route,
        "shift": complex(shift),
        "A": complex(sol.A),
        "omegaA": None if sol.omegaA is None else complex(sol.omegaA),
        "omegaB": None if sol.omegaB is None else complex(sol.omegaB),
    })
    return 0


def _cmd_eval(args) -> int:
    d = _load_descriptor(args.descriptor)
    x = _parse_complex(args.at, "--at")
    if x == 0:
        raise CliFailure(_VALIDATION, "bad-point",
                         "evaluation point must be nonzero", "--at")
    y_of = _family_y(args.kind, d, args.order)
    y, yp, z = _envelope_at(args.kind, d, x, y_of)
    if args.emit_plot:
        grid = max(2, args.grid)
        t0 = abs(x)
        e = x / t0
        rows = []
        for i in range(grid):
            xi = (t0 + args.plot_span * i / (grid - 1)) * e
            try:
                yi = y_of(xi)
            except (errors.InsidePoleDisk, errors.NearPole):
                continue
            rows.append((xi.real, xi.imag, yi.real, yi.imag))
        _write_csv(args.emit_plot, ("x_re", "x_im", "y_re", "y_im"), rows)
    _emit({
        "kind": args.kind,
        "at": x,
        "y": complex(y),
        "yprime": complex(yp),
        "zfrak": complex(z),
    })
    return 0


def _cmd_solve(args) -> int:
    pair = _load_pair(args.pair, args.tol)
    d = solve_rh(pair, args.phi, zero_tol=args.tol)
    _emit(descriptor_to_json_obj(d))
    return 0


def _cmd_continue(args) -> int:
    pair = _load_pair(args.pair, args.tol)
    plan = continuation_plan(pair, args.from_arg, args.to)
    descriptor = None
    phi_back = args.to - math.pi * round((args.to - args.from_arg) / math.pi)
    if abs(phi_back) < 0.5 * math.pi:
        try:
            descriptor = descriptor_to_json_obj(
                solve_rh(plan.resulting, phi_back, zero_tol=args.tol))
        except (errors.PvrhError, ValueError):
            descriptor = None
    _emit({
        "steps": list(plan.steps),
        "start_sheet": [float(plan.start_sheet[0]), float(plan.start_sheet[1])],
        "end_sheet": [float(plan.end_sheet[0]), float(plan.end_sheet[1])],
        "thetaInf_sign": int(plan.thetaInf_sign),
        "reciprocal": bool(plan.reciprocal),
        "pair": pair_to_json_obj(plan.resulting),
        "elliptic": None if plan.elliptic is None else dict(plan.elliptic),
        "descriptor": descriptor,
    })
    return 0


def _cmd_orbit(args) -> int:
    pair = _load_pair(args.pair, args.tol)
    ops = [op.strip() for op in args.ops.split(",") if op.strip()]
    if not ops:
        raise CliFailure(_MALFORMED, "bad-ops", "empty operator list", "--ops")
    for op in ops:
        if op not in _OP_TAGS:
            raise CliFailure(_MALFORMED, "bad-ops",
                             f"unknown operator {op!r} (choose from "
                             f"{', '.join(_OP_TAGS)})", "--ops")
    if args.steps < 1:
        raise CliFailure(_MALFORMED, "bad-steps", "steps must be >= 1",
                         "--steps")
    element = FamilyElement(pair, 0, "plain")
    sequence = []
    for i in range(args.steps):
        tag = ops[i % len(ops)]
        element = apply_operator(tag, element, pair)
        normal = gauge_normalize(element.pair, zero_tol=args.tol).pair
        sequence.append({
            "op": tag,
            "family": element.family,
            "index": int(element.index),
            "pair": pair_to_json_obj(normal),
        })
    _emit({"orbit": sequence})
    return 0


def _cmd_verify(args) -> int:
    d = _load_descriptor(args.seed)
    x = _parse_complex(args.at, "--at")
    if x == 0:
        raise CliFailure(_VALIDATION, "bad-point",
                         "verification point must be nonzero", "--at")
    kind = _KIND_OF.get(d.variant, "trunc")
    y, _, z = _eval_family(kind, d, x, args.order)
    seed = {"x": x, "y": y, "zfrak": z}
    t = abs(x)
    if args.bases:
        try:
            bases = sorted(float(b) for b in args.bases.split(","))
        except ValueError:
            raise CliFailure(_MALFORMED, "bad-bases",
                             "expected comma-separated |x| values",
                             "--bases") from None
        if not all(math.isfinite(b) and b > 0 for b in bases):
            raise CliFailure(_VALIDATION, "bad-bases",
                             "bases must be finite and positive", "--bases")
        if not bases or bases[-1] > t + 1e-12:
            raise CliFailure(_VALIDATION, "bad-bases",
                             "bases must stay at or below |x| of the seed",
                             "--bases")
    elif t > 20.0:
        bases = [t - 10.0, t - 5.0, t]
    else:
        bases = [0.8 * t, 0.9 * t, t]
    report = isomonodromy_drift(d.theta, seed, bases, dps=args.dps)
    recovered = report.pairs[-1]
    check = validate_pair(recovered.m0, recovered.m1, d.theta, args.tol)
    if args.emit_plot:
        traj = integrate_pv(d.theta, seed, bases[0], n_samples=max(2, args.grid))
        rows = [(xs.real, xs.imag, ys.real, ys.imag, zs.real, zs.imag)
                for xs, ys, zs, _ in traj.samples]
        _write_csv(args.emit_plot,
                   ("x_re", "x_im", "y_re", "y_im", "z_re", "z_im"), rows)
    _emit({
        "at": x,
        "bases": [float(b) for b in bases],
        "pair": pair_to_json_obj(recovered),
        "residuals": {k: float(v) for k, v in check.residuals.items()},
        "drift": float(report.drift),
    })
    return 0


def _cmd_conditions(args) -> int:
    theta = _parse_theta(args.theta)
    rep = theta_conditions(theta)
    try:
        regions: Optional[Dict[str, Any]] = region_emptiness(theta)
    except errors.IntegerTheta:
        regions = None
    _emit({
        "theta": [float(theta.theta0), float(theta.theta1),
                  float(theta.thetaInf)],
        "conditions": {
            "cond1": rep.cond1,
            "cond2": rep.cond2,
            "cond3": rep.cond3,
            "cond4": rep.cond4,
        },
        "all_hold": rep.all_hold(),
        "integer_flags": dict(rep.integer_flags),
        "regions": regions,
    })
    return 0


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliFailure(_MALFORMED, "bad-arguments", message, "argv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pvrh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_pair(p):
        p.add_argument("pair", help="pair JSON: path, inline object, or -")
        return p

    def with_tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help="validation tolerance (default PVRH_TOL or 1e-9)")
        return p

    p = with_tol(with_pair(sub.add_parser(
        "classify", help="zero-pattern region of a pair")))
    p.set_defaults(handler=_cmd_classify)

    p = with_tol(with_pair(sub.add_parser(
        "fricke", help="cubic-surface coordinates and residual")))
    p.set_defaults(handler=_cmd_fricke)

    p = sub.add_parser("boutroux", help="elliptic modulus along a direction")
    p.add_argument("--phi", type=float, required=True,
                   help="ray direction in radians")
    p.add_argument("--grid", type=int, default=25,
                   help="samples for --emit-plot (default 25)")
    p.add_argument("--emit-plot", metavar="PATH",
                   help="write a phi,reA,imA CSV sweep")
    p.set_defaults(handler=_cmd_boutroux, tol=None)

    p = with_tol(with_pair(sub.add_parser(
        "phase-shift", help="elliptic-strip phase shift of a pair")))
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--route", choices=("x0", "breve"), default="x0",
                   help="direct shift or the reciprocal-side variant")
    p.set_defaults(handler=_cmd_phase_shift)

    p = sub.add_parser("eval", help="evaluate an asymptotic family")
    p.add_argument("descriptor", help="descriptor JSON: path, inline, or -")
    p.add_argument("--kind", choices=("elliptic", "trig", "trunc"),
                   required=True)
    p.add_argument("--at", required=True, metavar="RE,IM",
                   help="evaluation point")
    p.add_argument("--order", type=int, default=8,
                   help="series truncation order for trunc kinds (default 8)")
    p.add_argument("--grid", type=int, default=81,
                   help="samples for --emit-plot (default 81)")
    p.add_argument("--plot-span", type=float, default=20.0,
                   help="|x| length of the plotted ray segment (default 20)")
    p.add_argument("--emit-plot", metavar="PATH",
                   help="write an x_re,x_im,y_re,y_im CSV along the ray")
    p.set_defaults(handler=_cmd_eval, tol=None)

    p = with_tol(with_pair(sub.add_parser(
        "solve", help="attach the asymptotic family for a direction")))
    p.add_argument("--phi", type=float, required=True,
                   help="direction in radians, inside (-pi/2, pi/2)")
    p.set_defaults(handler=_cmd_solve)

    p = with_tol(with_pair(sub.add_parser(
        "continue", help="rotate a pair to another sheet")))
    p.add_argument("--to", type=float, required=True,
                   help="target direction in radians")
    p.add_argument("--from", dest="from_arg", type=float, default=0.0,
                   help="starting direction in radians (default 0)")
    p.set_defaults(handler=_cmd_continue)

    p = with_tol(with_pair(sub.add_parser(
        "orbit", help="walk the operator orbit of a pair")))
    p.add_argument("--ops", required=True,
                   help="comma list drawn from m,s0,s1,shat0,shat1")
    p.add_argument("--steps", type=int, required=True,
                   help="number of single-operator steps")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("verify",
                       help="cross-check a descriptor against the ODE oracle")
    p.add_argument("--seed", required=True, metavar="DESCRIPTOR",
                   help="descriptor JSON: path, inline object, or -")
    p.add_argument("--at", required=True, metavar="RE,IM",
                   help="seeding point for the ray integration")
    p.add_argument("--order", type=int, default=8,
                   help="series truncation order for trunc seeds (default 8)")
    p.add_argument("--bases",
                   help="comma list of |x| monodromy base points "
                        "(default: three points below the seed)")
    p.add_argument("--dps", type=int, default=None,
                   help="run the whole chain in arbitrary precision")
    p.add_argument("--grid", type=int, default=129,
                   help="samples for --emit-plot (default 129)")
    p.add_argument("--emit-plot", metavar="PATH",
                   help="write the trajectory CSV "
                        "(x_re,x_im,y_re,y_im,z_re,z_im)")
    with_tol(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("conditions",
                       help="parameter-triple conditions and empty regions")
    p.add_argument("--theta", required=True, metavar="T0,T1,TINF",
                   help="three values; fractions like 1/3 are kept exact")
    p.set_defaults(handler=_cmd_conditions, tol=None)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.

    Parsing leaves a parser as it was, so main reuses one: building it
    takes about 2 ms, a sizeable share of a short command run in-process.
    """
    return build_parser()


def _emit_error(failure: CliFailure) -> None:
    sys.stdout.write(dumps_canonical({
        "schema": SCHEMA_VERSION,
        "code": failure.code,
        "message": str(failure),
        "location": failure.location,
    }) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(raw_argv)
        if getattr(args, "tol", None) is None:
            args.tol = _default_tol()
        elif args.tol <= 0.0:
            raise CliFailure(_MALFORMED, "bad-tolerance",
                             "--tol must be positive", "--tol")
        return args.handler(args)
    except CliFailure as exc:
        _emit_error(exc)
        return exc.status
    except _NUMERIC_ERRORS as exc:
        _emit_error(CliFailure(_NUMERIC, type(exc).__name__, str(exc),
                               raw_argv[0] if raw_argv else "argv"))
        return _NUMERIC
    except (errors.PvrhError, ValueError, ZeroDivisionError) as exc:
        _emit_error(CliFailure(_VALIDATION, type(exc).__name__, str(exc),
                               raw_argv[0] if raw_argv else "argv"))
        return _VALIDATION


if __name__ == "__main__":
    sys.exit(main())
