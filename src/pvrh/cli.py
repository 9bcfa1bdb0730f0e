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
from typing import Any, Dict, List, Optional, Sequence

from . import errors
from .asymptotics import (TEXT_PARAMS, AsymptoticDescriptor, family_at,
                          family_y, params_read, phase_shift)
from .boutroux_elliptic import solve_boutroux
from .char_variety import char_coords, fricke_residual
from .mono_core import (
    MonodromyPair,
    ThetaTriple,
    classify_region,
    pair_from_json_obj,
    pair_to_json_obj,
    validate_pair,
)
from .oracle import MIN_DPS, integrate_pv
from .rh_dispatch import (
    continuation_plan,
    operator_orbit,
    region_emptiness,
    solve_rh,
    theta_conditions,
    verify,
)

SCHEMA_VERSION = "2.0.0"

_MALFORMED = 1
_VALIDATION = 2
_NUMERIC = 3

_OP_TAGS = ("m", "s0", "s1", "shat0", "shat1")
# the family kind `eval` reports for a descriptor's variant
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


def _checked_tol(val: float, name: str, location: str) -> float:
    if not (math.isfinite(val) and val > 0.0):
        raise CliFailure(_MALFORMED, "bad-tolerance",
                         f"{name} must be finite and positive", location)
    return val


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
    return _checked_tol(val, "PVRH_TOL", "env:PVRH_TOL")


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


def _parse_point(text: str) -> complex:
    """The --at point of eval and verify: finite and nonzero."""
    x = _parse_complex(text, "--at")
    if x == 0 or not cmath.isfinite(x):
        raise CliFailure(_VALIDATION, "bad-point",
                         "the point must be finite and nonzero", "--at")
    return x


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
            vals.append(Fraction(part) if "/" in part else float(part))
            finite = math.isfinite(vals[-1])
        except (ValueError, ZeroDivisionError):
            raise CliFailure(_MALFORMED, "bad-theta",
                             f"not a number: {part!r}", "--theta") from None
        except OverflowError:  # a fraction beyond the doubles
            finite = False
        if not finite:
            raise CliFailure(_MALFORMED, "bad-theta",
                             f"not a finite double: {part!r}", "--theta")
    return ThetaTriple(vals[0], vals[1], vals[2])


def _load_pair(source: str, tol: float) -> MonodromyPair:
    obj = _read_json(source, "pair")
    try:
        pair = pair_from_json_obj(obj)
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
    """The descriptor of an `eval` or `verify` input. Each param its
    variant's evaluator reads (`params_read`) must be there, and each param
    is a number ([re, im] or real) but the strings of `TEXT_PARAMS`."""
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
        d = AsymptoticDescriptor(
            variant=str(obj["variant"]),
            params=params,
            sector=(float(sec[0]), float(sec[1])),
            theta=ThetaTriple(t0, t1, ti),
            sector_closed=(bool(closed[0]), bool(closed[1])),
            case=int(obj.get("case", 0)),
            nu=int(obj.get("nu", 0)),
        )
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise CliFailure(
            _MALFORMED, "bad-descriptor-schema",
            f"descriptor JSON needs variant/theta/params/sector ({exc})",
            "descriptor") from exc
    bad = [f"a {d.variant} descriptor needs params.{key}"
           for key in params_read(d) if key not in params]
    bad += [f"params.{key} must be a "
            f"{'string' if key in TEXT_PARAMS else 'number'}"
            for key, val in params.items()
            if isinstance(val, str) != (key in TEXT_PARAMS)]
    if bad:
        raise CliFailure(_MALFORMED, "bad-descriptor-schema", bad[0],
                         "descriptor")
    return d


def _load_descriptor(source: str) -> AsymptoticDescriptor:
    obj = _read_json(source, "descriptor")
    if not isinstance(obj, dict):
        raise CliFailure(_MALFORMED, "bad-descriptor-schema",
                         "descriptor JSON must be an object", "descriptor")
    obj = {k: v for k, v in obj.items() if k != "schema"}
    return descriptor_from_json_obj(obj)


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
    route, shift, sol = phase_shift(pair, args.phi)
    _emit({
        "phi": float(args.phi),
        "route": route,
        "shift": complex(shift),
        "A": complex(sol.A),
        "omegaA": None if sol.omegaA is None else complex(sol.omegaA),
        "omegaB": None if sol.omegaB is None else complex(sol.omegaB),
    })
    return 0


def _cmd_eval(args) -> int:
    d = _load_descriptor(args.descriptor)
    x = _parse_point(args.at)
    if not (math.isfinite(args.plot_span) and abs(x) + args.plot_span > 0.0):
        raise CliFailure(_VALIDATION, "bad-plot-span",
                         "the span must be finite, and |x| + span positive "
                         "so that the plotted segment stays on the ray",
                         "--plot-span")
    y_of = family_y(d, args.order)
    y, yp, z = family_at(d, x, y_of=y_of)
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
        "kind": _KIND_OF.get(d.variant, "trunc"),
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
    plan = continuation_plan(pair, args.from_arg, args.to, zero_tol=args.tol)
    _emit({
        "half_turns": plan.half_turns,
        "pair": pair_to_json_obj(plan.resulting),
        "elliptic": None if plan.elliptic is None else dict(plan.elliptic),
        "descriptor": None if plan.descriptor is None
        else descriptor_to_json_obj(plan.descriptor),
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
    orbit = operator_orbit(pair, ops, args.steps, zero_tol=args.tol)
    _emit({"orbit": [{
        "op": tag,
        "family": element.family,
        "index": int(element.index),
        "pair": pair_to_json_obj(normal),
    } for tag, element, normal in orbit]})
    return 0


def _cmd_verify(args) -> int:
    d = _load_descriptor(args.seed)
    x = _parse_point(args.at)
    if args.dps is not None and args.dps < MIN_DPS:
        raise CliFailure(_VALIDATION, "bad-dps",
                         f"--dps must be at least {MIN_DPS}: the mp chain "
                         "keeps about dps - 16 digits", "--dps")
    bases = None
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
        if not bases or bases[-1] > abs(x) + 1e-12:
            raise CliFailure(_VALIDATION, "bad-bases",
                             "bases must stay at or below |x| of the seed",
                             "--bases")
    report = verify(d, x, bases, dps=args.dps, order=args.order, tol=args.tol)
    if args.emit_plot:
        traj = integrate_pv(d.theta, report.seed, report.bases[0],
                            n_samples=max(2, args.grid))
        rows = [(xs.real, xs.imag, ys.real, ys.imag, zs.real, zs.imag)
                for xs, ys, zs in traj.samples]
        _write_csv(args.emit_plot,
                   ("x_re", "x_im", "y_re", "y_im", "z_re", "z_im"), rows)
    _emit({
        "at": x,
        "bases": list(report.bases),
        "pair": pair_to_json_obj(report.pair),
        "residuals": {k: float(v) for k, v in report.residuals.items()},
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
    p.add_argument("--phi", type=float, required=True,
                   help="direction in radians; the direct shift in "
                        "(-pi/2, pi/2), the breve one in (pi/2, 3pi/2)")
    p.set_defaults(handler=_cmd_phase_shift)

    p = sub.add_parser("eval", help="evaluate an asymptotic family")
    p.add_argument("descriptor", help="descriptor JSON: path, inline, or -")
    p.add_argument("--at", required=True, metavar="RE,IM",
                   help="evaluation point")
    p.add_argument("--order", type=int, default=8,
                   help="series truncation order for trunc families "
                        "(default 8)")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    where = raw_argv[0] if raw_argv else "argv"
    try:
        args = _parser().parse_args(raw_argv)
        if getattr(args, "tol", None) is None:
            args.tol = _default_tol()
        else:
            _checked_tol(args.tol, "--tol", "--tol")
        return args.handler(args)
    except CliFailure as exc:
        failure = exc
    except errors.NUMERIC_ERRORS as exc:
        failure = CliFailure(_NUMERIC, type(exc).__name__, str(exc), where)
    except errors.OrderOutOfRange as exc:
        failure = CliFailure(_VALIDATION, "bad-order", str(exc), "--order")
    except (errors.PvrhError, ValueError, ZeroDivisionError) as exc:
        failure = CliFailure(_VALIDATION, type(exc).__name__, str(exc), where)
    _emit({"code": failure.code, "message": str(failure),
           "location": failure.location})
    return failure.status


if __name__ == "__main__":
    sys.exit(main())
