"""Monodromy-to-asymptotics dispatch, continuation, and the oracle check.

Given a valid monodromy pair and a direction on the universal cover,
pick the asymptotic family the pair parametrizes there (elliptic strip,
oscillatory ray, or one of the exponentially truncated families) and
recover the family constants from the matrix entries. A rotation by a
multiple of pi is one conjugation by a power of the composite loop and at
most one Stokes step. `verify` seeds the ODE oracle from a family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .asymptotics import (SQRT_2PI, _BRANCHES, _BY_VARIANT, _FAMILIES,
                          AsymptoticDescriptor, _combos, _excluded,
                          _family_descriptor, _fixed_entry, _generic_failures,
                          _member, _partner, _resonance_nu, _triangle,
                          beta0_vhat, build_trunc_family, complex_gamma,
                          family_at, phase_shift, recover_c0,
                          recover_c0_nongeneric)
from .char_variety import char_coords, fricke_ok, fricke_residual
from .errors import (AmbiguousSign, DomainViolation, IntegerTheta, NonUniqueFiber,
                     NotPiMultiple, PvrhError, ToleranceFailure, UnmappedRegion,
                     WrongSector)
from .mono_core import (FamilyElement, Mat2C, MonodromyPair, ThetaTriple, ZeroTest,
                        apply_operator, classify_region, gauge_normalize,
                        monodromy_shift, stokes_hat, validate_pair)
from .oracle import isomonodromy_drift

_HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# arithmetic conditions on theta

@dataclass(frozen=True)
class ThetaConditionReport:
    theta: ThetaTriple
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    integer_flags: Dict[str, bool]

    def all_hold(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3 and self.cond4


def theta_conditions(theta: ThetaTriple) -> ThetaConditionReport:
    """The four non-resonance conditions plus the integer memberships."""
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    # condition k holds when theta sits on neither resonant branch of row k
    conds = [all(_resonance_nu(j, combo) is None
                 for j, combo in enumerate(_combos(row, theta)))
             for row in _FAMILIES]
    flags = {
        "theta0_int": _member(t0, "Z"),
        "theta1_int": _member(t1, "Z"),
        "thetaInf_int": _member(ti, "Z"),
        "theta0_posnat": _member(t0, "N"),
        "theta1_posnat": _member(t1, "N"),
        "theta0_nonpos": _member(t0, "-N0"),
        "theta1_nonpos": _member(t1, "-N0"),
        "parity_r5": any(
            _member(e0 * t0 + e1 * t1 + ti, "2Z")
            for e0 in (1, -1) for e1 in (1, -1)),
    }
    return ThetaConditionReport(theta, *conds, flags)


def region_emptiness(theta: ThetaTriple) -> Dict[str, object]:
    """Which sign-regions are empty for this theta, with the substitution note."""
    rep = theta_conditions(theta)
    if rep.integer_flags["theta0_int"] or rep.integer_flags["theta1_int"]:
        raise IntegerTheta("emptiness table needs theta0, theta1 off the integers")
    conds = (rep.cond1, rep.cond2, rep.cond3, rep.cond4)
    empty = {row.region: not ok for row, ok in zip(_FAMILIES, conds)}
    return {
        "empty": empty,
        "r5_nonempty": rep.integer_flags["parity_r5"],
        "note": "resonant family replaces each empty region" if any(empty.values())
                else "no region is empty",
    }


# ---------------------------------------------------------------------------
# main dispatcher

def _is_pm_identity(m: Mat2C, tol: float) -> bool:
    scale = max(1.0, m.norm_inf())
    for sign in (1.0, -1.0):
        if (abs(m.m11 - sign) <= tol * scale and abs(m.m22 - sign) <= tol * scale
                and abs(m.m12) <= tol * scale and abs(m.m21) <= tol * scale):
            return True
    return False


def _dispatch_r5(pair: MonodromyPair) -> AsymptoticDescriptor:
    th = pair.theta
    zero = ZeroTest(pair)
    matched_any = False
    for case, row in enumerate(_FAMILIES, 1):
        if _excluded(row, th):
            continue
        for j, (branch, combo) in enumerate(zip(_BRANCHES, _combos(row, th))):
            nu = _resonance_nu(j, combo)
            if nu is None:
                continue
            # the diagonals of the carrier and the branch-fixed matrix
            carried = _triangle(row, th)[0]
            fixed = _triangle(_partner(case, j), th)[0]
            want0, want1 = (fixed, carried) if row.carrier == "m1_21" \
                else (carried, fixed)
            if not (zero.matches(pair.m0.m11, want0, 1e-6)
                    and zero.matches(pair.m1.m11, want1, 1e-6)):
                continue
            matched_any = True
            try:
                c0 = recover_c0_nongeneric(case, branch, nu, pair)
            except DomainViolation:
                continue
            return _family_descriptor(row, c0, th, zero.vanishes(c0, 1e-12),
                                      case, nu)
    if matched_any:
        raise NonUniqueFiber(
            "family constant is invisible in the monodromy (resonant nu=1 branch)")
    raise UnmappedRegion(
        "doubly-reduced pair matches no resonant-family signature")


def _elliptic_descriptor(pair: MonodromyPair, phi: float) -> AsymptoticDescriptor:
    _, x0, sol = phase_shift(pair, phi)
    sector = (-_HALF_PI, 0.0) if phi < 0 else (0.0, _HALF_PI)
    return AsymptoticDescriptor(
        variant="Elliptic", params={"A": sol.A, "x0": x0},
        sector=sector, sector_closed=(False, False), theta=pair.theta)


def _trunc_descriptor(row, pair: MonodromyPair) -> AsymptoticDescriptor:
    fails = _generic_failures(row, pair.theta, _combos(row, pair.theta))
    if fails:
        raise UnmappedRegion(
            f"{row.variant} signature but its arithmetic conditions fail: "
            + "; ".join(fails))
    c0 = recover_c0(row.variant, pair)
    return _family_descriptor(row, c0, pair.theta,
                              ZeroTest(pair).vanishes(c0, 1e-12))


def solve_rh(pair: MonodromyPair, phi: float,
             zero_tol: float = 1e-9) -> AsymptoticDescriptor:
    """Descriptor of the solution this pair parametrizes in direction phi.

    phi is restricted to the principal strip |phi| < pi/2; rotate the pair
    with continuation_plan first to reach other sheets.
    """
    if not -_HALF_PI < phi < _HALF_PI:
        raise ValueError("phi must lie strictly inside (-pi/2, pi/2)")
    if _is_pm_identity(pair.m0, max(zero_tol, 1e-12)) \
            or _is_pm_identity(pair.m1, max(zero_tol, 1e-12)):
        raise NonUniqueFiber("a monodromy matrix is +-identity")
    region = classify_region(pair, zero_tol=zero_tol)
    th = pair.theta

    if region.tag == "R1":
        if phi == 0.0:
            td = beta0_vhat(pair)
            return AsymptoticDescriptor(
                variant="Trig",
                params={"beta0": td.beta0, "vhat": td.vhat,
                        "degenerate": complex(td.degenerate)},
                sector=(0.0, 0.0), sector_closed=(True, True), theta=th)
        return _elliptic_descriptor(pair, phi)

    if region.tag == "R2_0":
        if phi < 0.0:
            return _elliptic_descriptor(pair, phi)
        what = pair.m0.m11 * cmath.exp(0.5j * cmath.pi * th.thetaInf) / SQRT_2PI
        return AsymptoticDescriptor(
            variant="TruncAK", params={"amp": what, "direction": 1.0 + 0.0j},
            sector=(0.0, math.pi), sector_closed=(True, False), theta=th)

    if region.tag == "R2_1":
        if phi > 0.0:
            return _elliptic_descriptor(pair, phi)
        vhat = pair.m1.m11 * cmath.exp(0.5j * cmath.pi * th.thetaInf) / (1j * SQRT_2PI)
        return AsymptoticDescriptor(
            variant="TruncAK", params={"amp": vhat, "direction": -1.0 + 0.0j},
            sector=(-math.pi, 0.0), sector_closed=(False, True), theta=th)

    if region.tag == "R2_01":
        return AsymptoticDescriptor(
            variant="DoublyTruncAK", params={},
            sector=(-math.pi, math.pi), sector_closed=(False, False), theta=th)

    for row in _FAMILIES:
        if region.tag == row.region:
            return _trunc_descriptor(row, pair)
    if region.tag == "R5":
        return _dispatch_r5(pair)
    # bare R3/R4: the sublabels merged because theta is an integer
    raise UnmappedRegion(
        f"region {region.tag} has merged sign-labels (integer theta); "
        "no single truncated family is selected")


# ---------------------------------------------------------------------------
# continuation across sheets

@dataclass(frozen=True)
class ContinuationPlan:
    """The rotation by n = half_turns half turns (`continuation_plan`), the
    pair it gives, and the elliptic data and family on the target sheet."""

    half_turns: int
    resulting: MonodromyPair
    elliptic: Optional[Dict[str, complex]] = None
    descriptor: Optional[AsymptoticDescriptor] = None


def _on_manifold(pair: MonodromyPair, what: str) -> MonodromyPair:
    """pair, if it is finite and passes `fricke_ok`; else ToleranceFailure."""
    point = char_coords(pair)
    if not (pair.m0.is_finite() and pair.m1.is_finite() and fricke_ok(point)):
        raise ToleranceFailure(
            f"{what} is off the monodromy manifold (Fricke residual "
            f"{abs(fricke_residual(point)):.3e} at coordinates of size "
            f"{point.norm_inf():.3e})")
    return pair


def _turned(pair: MonodromyPair, k: int, stokes_step: Optional[str],
            what: str) -> MonodromyPair:
    """`monodromy_shift(pair, k)`, then the Stokes step (s0 or s1, with pair
    as the family base) if one is given, checked by `_on_manifold`; a
    conjugation that divides by zero raises ToleranceFailure."""
    try:
        out = monodromy_shift(pair, k)
        if stokes_step:
            out = apply_operator(stokes_step, FamilyElement(out, k), pair).pair
    except ZeroDivisionError as exc:
        raise ToleranceFailure(f"{what} overflowed") from exc
    return _on_manifold(out, what)


def continuation_plan(pair: MonodromyPair, from_arg: float, to_arg: float,
                      zero_tol: float = 1e-9) -> ContinuationPlan:
    """Plan the rotation from_arg -> to_arg by n half turns: |n| // 2 full
    turns in one `monodromy_shift`, then for odd n one Stokes step, s0 if
    n > 0 and s1 if n < 0 (`_turned`). A span too large for the 1e-9
    pi-multiple test raises DomainViolation. The elliptic data (phase shift
    and modulus) is attached when the target, pulled back by full turns,
    has a phase shift; the descriptor is `solve_rh` of the resulting pair
    at the target pulled back by the n half turns, when one attaches there.
    """
    span = (to_arg - from_arg) / math.pi
    if not math.ulp(span) <= 1e-9:  # also catches inf and nan
        raise DomainViolation(f"rotation from {from_arg} to {to_arg} is not "
                              "finite, or too large to tell a pi-multiple")
    n = round(span)
    if abs(span - n) > 1e-9:
        raise NotPiMultiple(f"rotation {to_arg - from_arg} is not a pi-multiple")
    turns, odd = divmod(abs(n), 2)
    half, k = ("s0", turns) if n >= 0 else ("s1", -turns)
    resulting = _turned(pair, k, half if odd else None,
                        f"the pair rotated by {n} half turns")
    try:  # ValueError off the principal sheet
        descriptor = solve_rh(resulting, to_arg - math.pi * n, zero_tol)
    except (PvrhError, ValueError):
        descriptor = None
    return ContinuationPlan(n, resulting, _elliptic_attachment(pair, to_arg),
                            descriptor)


def _elliptic_attachment(pair: MonodromyPair,
                         to_arg: float) -> Optional[Dict[str, complex]]:
    """Phase shift of the elliptic regime on the target sheet, if any.

    The target is pulled back by p full turns into [-pi/2, 3pi/2), and the
    pair by as many (`_turned`); `phase_shift` picks the route.
    """
    p = math.floor((to_arg + _HALF_PI) / (2.0 * math.pi))
    phi = to_arg - 2.0 * math.pi * p
    shifted = _turned(pair, p, None, f"the pair pulled back by {p} full turns")
    try:
        route, x0, sol = phase_shift(shifted, phi)
    except (DomainViolation, AmbiguousSign, WrongSector):
        return None
    return {"x0": x0, "A": sol.A, "route": route}


def operator_orbit(pair: MonodromyPair, ops: Sequence[str], steps: int,
                   zero_tol: float = 1e-9
                   ) -> List[Tuple[str, FamilyElement, MonodromyPair]]:
    """(operator, element, its gauge normal form) for the first `steps`
    elements of the orbit of pair under ops in turn; ToleranceFailure at a
    normal form off the monodromy manifold (`_on_manifold`)."""
    element = FamilyElement(pair, 0, "plain")
    orbit = []
    for i in range(steps):
        tag = ops[i % len(ops)]
        element = apply_operator(tag, element, pair)
        normal = gauge_normalize(element.pair, zero_tol=zero_tol)
        orbit.append((tag, element, _on_manifold(
            normal, f"the pair of orbit step {i + 1}")))
    return orbit


def example_22_coefficient(theta: ThetaTriple, c0: complex) -> complex:
    """Constant of the rotated truncated family, with a chain cross-check.

    Closed form: the input constant plus the Trunc01 fixed off-entry over
    Gamma(theta0). The cross-check rebuilds it by conjugating the
    constructed pair through the upper Stokes twist and reading the
    rotated family constant from the gauge-invariant entry product.
    """
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    row = _BY_VARIANT["Trunc01"]
    closed = c0 + _fixed_entry(row, theta, 1.0, _combos(row, theta)) \
        / complex_gamma(t0)

    pair, _ = build_trunc_family("Trunc01", c0, theta, 1.0)
    hat = stokes_hat(pair)
    prod = hat.m0.m21 * hat.m1.m12
    cxm = prod / (2j * cmath.pi) ** 2 * cmath.exp(-1j * cmath.pi * ti) \
        * complex_gamma(1.0 - t0) * complex_gamma(1.0 - 0.5 * (t0 + t1 - ti)) \
        * complex_gamma(-0.5 * (t0 - t1 - ti))
    chained = cmath.exp(-1j * cmath.pi * (2 * t0 - ti)) * cxm
    if abs(chained - closed) > 1e-10 * (1.0 + abs(closed)):
        raise ArithmeticError(
            f"rotation-constant routes disagree: {closed} vs {chained}")
    return closed


# ---------------------------------------------------------------------------
# the oracle check of a family

@dataclass(frozen=True)
class VerifyReport:
    seed: Dict[str, complex]  # x, y and zfrak the ray starts from
    bases: Tuple[float, ...]  # sorted
    pair: MonodromyPair  # read back at the largest base
    residuals: Dict[str, float]  # validate_pair of that pair
    drift: float


def verify(d: AsymptoticDescriptor, x: complex,
           bases: Optional[Sequence[float]] = None, dps: Optional[int] = None,
           order: int = 8, tol: float = 1e-9) -> VerifyReport:
    """Seed the ODE oracle with the family at x (`family_at`) and read the
    monodromy back at the bases (`isomonodromy_drift`): [t - 10, t - 5, t]
    for t = |x| > 20, else [0.8 t, 0.9 t, t]. The pair at the largest base
    is checked against d's theta by `validate_pair` at tol."""
    y, _, z = family_at(d, x, order)
    seed = {"x": x, "y": y, "zfrak": z}
    t = abs(x)
    if bases is None:
        bases = [t - 10.0, t - 5.0, t] if t > 20.0 else [0.8 * t, 0.9 * t, t]
    report = isomonodromy_drift(d.theta, seed, bases, dps=dps)
    recovered = report.pairs[-1]
    check = validate_pair(recovered.m0, recovered.m1, d.theta, tol)
    return VerifyReport(seed, report.t_values, recovered,
                        dict(check.residuals), report.drift)
