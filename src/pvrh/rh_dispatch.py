"""Monodromy-to-asymptotics dispatch and sheet-to-sheet continuation.

Given a valid monodromy pair and a direction on the universal cover,
pick the asymptotic family the pair parametrizes there (elliptic strip,
oscillatory ray, or one of the exponentially truncated families) and
recover the family constants from the matrix entries. Rotations by
multiples of pi are planned as compositions of the nonlinear operators
from mono_core, with sign and reciprocal bookkeeping.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .asymptotics import (
    AsymptoticDescriptor,
    SQRT_2PI,
    _BRANCHES,
    _BY_VARIANT,
    _FAMILIES,
    _combos,
    _excluded,
    _family_descriptor,
    _fixed_entry,
    _generic_failures,
    _member,
    _partner,
    _resonance_nu,
    _triangle,
    beta0_vhat,
    complex_gamma,
    phase_shift_breve,
    phase_shift_x0,
    recover_c0,
    recover_c0_nongeneric,
)
from .boutroux_elliptic import solve_boutroux
from .errors import (
    AmbiguousSign,
    DomainViolation,
    IntegerTheta,
    NonUniqueFiber,
    NotPiMultiple,
    UnmappedRegion,
)
from .mono_core import (
    FamilyElement,
    Mat2C,
    MonodromyPair,
    ThetaTriple,
    ZeroTest,
    apply_operator,
    classify_region,
    monodromy_shift,
    stokes_hat,
)

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
    sol = solve_boutroux(phi)
    x0 = phase_shift_x0(pair, phi, sol)
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
    steps: Tuple[str, ...]
    start_sheet: Tuple[float, float]
    end_sheet: Tuple[float, float]
    resulting: MonodromyPair
    thetaInf_sign: int
    reciprocal: bool
    elliptic: Optional[Dict[str, complex]] = None


def continuation_plan(pair: MonodromyPair, from_arg: float,
                      to_arg: float) -> ContinuationPlan:
    """Plan the rotation from_arg -> to_arg as pi-steps of the operators.

    Counterclockwise pi-steps use the upper-factor operator (s0), clockwise
    the lower one (s1); full turns collapse to the composite-loop shift.
    The attached elliptic data (phase shift and modulus) is present when
    the target direction, pulled back to the principal sheet, lands in one
    of the elliptic quadrants.
    """
    span = (to_arg - from_arg) / math.pi
    n = round(span)
    if abs(span - n) > 1e-9:
        raise NotPiMultiple(f"rotation {to_arg - from_arg} is not a pi-multiple")
    if n >= 0:
        steps: List[str] = ["m"] * (n // 2) + ["s0"] * (n % 2)
    else:
        steps = ["m_inv"] * ((-n) // 2) + ["s1"] * ((-n) % 2)
    elem = FamilyElement(pair, 0, "plain")
    for tag in steps:
        elem = apply_operator(tag, elem, pair)
    return ContinuationPlan(
        steps=tuple(steps),
        start_sheet=(from_arg - _HALF_PI, from_arg + _HALF_PI),
        end_sheet=(to_arg - _HALF_PI, to_arg + _HALF_PI),
        resulting=elem.pair,
        thetaInf_sign=-1 if n % 2 else 1,
        reciprocal=bool(n % 2),
        elliptic=_elliptic_attachment(pair, to_arg),
    )


def _elliptic_attachment(pair: MonodromyPair,
                         to_arg: float) -> Optional[Dict[str, complex]]:
    """Phase shift of the elliptic regime on the target sheet, if any."""
    p = math.floor((to_arg + _HALF_PI) / (2.0 * math.pi))
    phi = to_arg - 2.0 * math.pi * p
    quadrant = (-_HALF_PI < phi < 0.0) or (0.0 < phi < _HALF_PI)
    upper = (_HALF_PI < phi < math.pi) or (math.pi < phi < 1.5 * math.pi)
    if not (quadrant or upper):
        return None
    shifted = monodromy_shift(pair, p)
    try:
        if quadrant:
            sol = solve_boutroux(phi)
            x0 = phase_shift_x0(shifted, phi, sol)
            return {"x0": x0, "A": sol.A, "route": "direct",
                    "sheet_phi": phi, "sheet_index": complex(p)}
        sol = solve_boutroux(phi - math.pi)
        x0 = -phase_shift_x0(stokes_hat(shifted), phi - math.pi, sol)
        return {"x0": x0, "A": sol.A, "route": "flipped",
                "sheet_phi": phi, "sheet_index": complex(p)}
    except (DomainViolation, AmbiguousSign):
        return None


def example_22_coefficient(theta: ThetaTriple, c0: complex) -> complex:
    """Constant of the rotated truncated family, with a chain cross-check.

    Closed form: the input constant plus the Trunc01 fixed off-entry over
    Gamma(theta0). The cross-check rebuilds it by conjugating the
    constructed pair through the upper Stokes twist and reading the
    rotated family constant from the gauge-invariant entry product.
    """
    from .asymptotics import build_trunc_family

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
