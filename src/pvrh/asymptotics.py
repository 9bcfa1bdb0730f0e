"""Asymptotic solution families and their monodromy-data constants.

Covers the elliptic-strip leading term with its phase shift, the
trigonometric family on the positive axis, the exponentially truncated
families in the four standard variants (plus the resonant non-generic
ones and the four boundary-ray families), the formal power series they
all sit on, and the general-solution entry formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np
import scipy.special as sp

from ._laurent import Laurent
from .boutroux_elliptic import BoutrouxSolution, reduce_mod_lattice, sn_cn_dn
from .errors import (
    CaseGap,
    ConditionMismatch,
    DomainViolation,
    InsidePoleDisk,
    NearPole,
    OutsideValidity,
    PoleOfGamma,
    ResonanceFailure,
    ThetaViolation,
    UnderdeterminedCompletion,
    WrongSector,
)
from .mono_core import Mat2C, MonodromyPair, StokesMatrices, ThetaTriple, stokes_from_pair

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument, guarded at its poles."""
    z = complex(z)
    if abs(z.imag) < 1e-12:
        n = round(z.real)
        if n <= 0 and abs(z.real - n) < 1e-12:
            raise PoleOfGamma(f"Gamma pole at {n}")
    return complex(sp.gamma(z))


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma, entire; returns exactly 0 at the poles of Gamma."""
    z = complex(z)
    if abs(z.imag) < 1e-12:
        n = round(z.real)
        if n <= 0 and abs(z.real - n) < 1e-12:
            return 0.0 + 0.0j
    return complex(sp.rgamma(z))


# ---------------------------------------------------------------------------
# descriptor and series containers

@dataclass(frozen=True)
class AsymptoticDescriptor:
    """Which asymptotic family, its constants, and where it is valid.

    sector is (arg_min, arg_max) on the universal cover of the x-plane;
    sector_closed marks which endpoint is included.
    """

    variant: str
    params: Dict[str, complex]
    sector: Tuple[float, float]
    theta: ThetaTriple
    sector_closed: Tuple[bool, bool] = (False, False)
    case: int = 0
    nu: int = 0


@dataclass(frozen=True)
class FormalSeries:
    leading_tag: str
    theta: ThetaTriple
    order: int
    min_exp: int
    coeffs: Tuple[complex, ...]

    def eval(self, x: complex) -> complex:
        total = 0.0 + 0.0j
        for i, c in enumerate(self.coeffs):
            total += c * x ** (-(self.min_exp + i))
        return total

    def eval_deriv(self, x: complex) -> complex:
        total = 0.0 + 0.0j
        for i, c in enumerate(self.coeffs):
            e = self.min_exp + i
            total += -e * c * x ** (-e - 1)
        return total

    @property
    def leading_coeff(self) -> complex:
        return self.coeffs[0]


@dataclass(frozen=True)
class GeneralSolutionParams:
    sigma: complex
    c0: complex
    cx: complex
    utilde: complex
    side: str  # "upper" (arg x -> pi/2) or "lower" (arg x -> -pi/2)


class TrigData(NamedTuple):
    beta0: complex
    vhat: complex
    degenerate: bool


def in_sector(x: complex, d: AsymptoticDescriptor) -> bool:
    """Membership of arg(x) in the descriptor sector, modulo full turns."""
    lo, hi = d.sector
    lo_closed, hi_closed = d.sector_closed
    ph = cmath.phase(x)
    for k in (-1, 0, 1):
        a = ph + 2.0 * math.pi * k
        above = a > lo + 1e-12 or (lo_closed and a >= lo - 1e-12)
        below = a < hi - 1e-12 or (hi_closed and a <= hi + 1e-12)
        if above and below:
            return True
    return False


# ---------------------------------------------------------------------------
# trigonometric family

def beta0_vhat(pair: MonodromyPair) -> TrigData:
    """Exponent and amplitude of the oscillatory family on the positive axis.

    Both admissible forms of the log argument are computed and must agree;
    a unit argument (zero exponent) is legal but the amplitude degenerates,
    which is flagged rather than raised.
    """
    th = pair.theta
    ew = cmath.exp(1j * cmath.pi * th.thetaInf)
    scale = 1.0 + pair.norm_inf()
    m011, m111 = pair.m0.m11, pair.m1.m11
    prod = pair.m0.m21 * pair.m1.m12
    if abs(m011) < 1e-12 * scale or abs(m111) < 1e-12 * scale \
            or abs(prod) < 1e-12 * scale * scale:
        raise DomainViolation("oscillatory family needs all four R1 entries nonzero")
    arg_a = 1.0 - m011 * m111 * ew
    arg_b = prod * ew
    if abs(arg_a - arg_b) > 1e-9 * (1.0 + abs(arg_a)):
        raise DomainViolation(
            f"log-argument forms disagree: {arg_a} vs {arg_b} (invalid pair?)")
    beta0 = cmath.log(arg_b) / (2j * cmath.pi)
    degenerate = abs(beta0) < 1e-12
    vhat = -SQRT_2PI / m011 * reciprocal_gamma(beta0) * cmath.exp(
        beta0 * math.log(2.0) - 0.5j * cmath.pi * th.thetaInf + 0.5j * cmath.pi * beta0)
    return TrigData(beta0, vhat, degenerate)


_TRIG_MODES = ("sine", "exp_minus", "cos_ratio", "exp_plus", "exp_plus_neg")


def _trig_default_mode(re_b: float) -> str:
    if -0.25 < re_b < 0.25:
        return "sine"
    if 0.25 <= re_b < 0.5:
        return "exp_minus"
    if abs(re_b - 0.5) < 1e-12:
        return "cos_ratio"
    if 0.5 < re_b <= 0.75:
        return "exp_plus"
    if -0.5 < re_b <= -0.25:
        return "exp_plus_neg"
    raise CaseGap(f"Re beta0 = {re_b} outside every stated band")


def eval_trig(x: complex, d: AsymptoticDescriptor, mode: Optional[str] = None) -> complex:
    """Leading trigonometric value at x; mode override for band overlaps."""
    beta0 = d.params["beta0"]
    vhat = d.params["vhat"]
    if mode is None:
        mode = _trig_default_mode(beta0.real)
    elif mode not in _TRIG_MODES:
        raise ValueError(f"unknown trig mode {mode!r}")

    if mode == "sine":
        if abs(beta0) < 1e-12:
            return -1.0 + 0.0j
        rtb = cmath.sqrt(beta0)
        phase = 0.5 * x + 1j * beta0 * cmath.log(x) + 1j * cmath.log(vhat / rtb)
        return -1.0 + TWO_SQRT2 * 2.0 * cmath.exp(-0.25j * cmath.pi) * rtb \
            * x ** (-0.5) * cmath.sin(phase)
    if mode == "exp_minus":
        return -1.0 + TWO_SQRT2 * cmath.exp(0.25j * cmath.pi) * vhat \
            * x ** (beta0 - 0.5) * cmath.exp(-0.5j * x)
    if mode == "exp_plus":
        return -1.0 + TWO_SQRT2 * 2.0 * cmath.exp(-0.25j * cmath.pi) / vhat \
            * x ** (0.5 - beta0) * cmath.exp(0.5j * x)
    if mode == "exp_plus_neg":
        return -1.0 - TWO_SQRT2 * cmath.exp(0.25j * cmath.pi) * beta0 / vhat \
            * x ** (-beta0 - 0.5) * cmath.exp(0.5j * x)
    # cos_ratio
    xt = 0.25 * x + (1.0 - 2.0 * beta0) / 4j * cmath.log(x) \
        - cmath.log(-cmath.exp(0.25j * cmath.pi) * vhat / math.sqrt(2.0)) / 2j
    s = cmath.sin(xt)
    c = cmath.cos(xt)
    if abs(s) < 1e-8 * max(1.0, abs(c)):
        raise NearPole("cos^2/sin^2 form at a zero of sin")
    return (c / s) ** 2


# ---------------------------------------------------------------------------
# formal series

_SERIES_TAGS = ("minus_one", "small0", "small1", "large0", "large1")


def _pv_residual_series(y: Laurent, th: ThetaTriple, cap: int) -> Laurent:
    """Polynomial-cleared residual of the fifth Painleve equation.

    2 x^2 y (y-1) y'' - x^2 (3y-1) (y')^2 + 2 x y (y-1) y'
    - 2 (y-1)^3 (a y^2 - b) - 2 c x y^2 (y-1) + x^2 y^2 (y+1)
    """
    a = th.a_theta
    b = th.b_theta
    c = th.c_theta
    one = Laurent.const(1.0, cap)
    x1 = Laurent.x_power(1, cap)
    x2 = Laurent.x_power(2, cap)
    yp = y.diff()
    ypp = yp.diff()
    ym1 = y - one
    t1 = x2 * y * ym1 * ypp
    t1 = t1 + t1
    t2 = x2 * (y.scale(3.0) - one) * yp * yp
    t3 = (x1 * y * ym1 * yp).scale(2.0)
    t4 = (ym1 * ym1 * ym1 * ((y * y).scale(a) - Laurent.const(b, cap))).scale(2.0)
    t5 = (x1 * y * y * ym1).scale(2.0 * c)
    t6 = x2 * y * y * (y + one)
    return t1 - t2 + t3 - t4 - t5 + t6


_SERIES_SEEDS = {
    # tag: (min_exp, seed function of theta)
    "minus_one": (0, lambda th: -1.0 + 0.0j),
    "small0": (1, lambda th: 0.5 * (th.theta0 - th.theta1 - th.thetaInf)),
    "small1": (1, lambda th: -0.5 * (th.theta0 - th.theta1 - th.thetaInf)),
    "large0": (-1, lambda th: 2.0 / (th.theta1 - th.theta0 - th.thetaInf)),
    "large1": (-1, lambda th: 2.0 / (th.theta0 - th.theta1 + th.thetaInf)),
}


def formal_series_pv(leading_tag: str, theta: ThetaTriple, N: int) -> FormalSeries:
    """Coefficients of the doubly-truncated power-series solution.

    Order-by-order substitution into the cleared equation; each new
    coefficient enters linearly, so two evaluations of the residual pin it.
    """
    if leading_tag not in _SERIES_SEEDS:
        raise ValueError(f"unknown leading_tag {leading_tag!r}")
    if N > 20:
        raise ValueError("order capped at 20 (coefficient growth)")
    min_exp, seed = _SERIES_SEEDS[leading_tag]
    if N < min_exp:
        raise ValueError("order below the leading exponent")
    cap = N + 10
    coeffs = np.zeros(N - min_exp + 1, dtype=complex)
    coeffs[0] = seed(theta)

    def residual_with(mth_value: complex, m: int) -> Laurent:
        work = coeffs.copy()
        work[m - min_exp] = mth_value
        y = Laurent(min_exp, work, cap)
        return _pv_residual_series(y, theta, cap)

    for m in range(min_exp + 1, N + 1):
        r0 = residual_with(0.0, m)
        r1 = residual_with(1.0, m)
        diff = r1 - r0
        k_star = None
        for k in range(diff.e0, cap + 1):
            if abs(diff.coeff(k)) > 1e-10 * max(1.0, abs(r0.coeff(k))):
                k_star = k
                break
        if k_star is None:
            raise ResonanceFailure(f"no resolving order for coefficient {m}")
        slope = diff.coeff(k_star)
        value = -r0.coeff(k_star) / slope
        check = residual_with(value, m).coeff(k_star)
        tol = 1e-8 * max(1.0, abs(r0.coeff(k_star)), abs(slope) * abs(value))
        if abs(check) > tol:
            # the coefficient can enter nonlinearly at low order; secant polish
            prev_v, prev_f = 0.0 + 0.0j, r0.coeff(k_star)
            for _ in range(40):
                if abs(check) <= tol or check == prev_f:
                    break
                value, prev_v, prev_f = (
                    value - check * (value - prev_v) / (check - prev_f), value, check)
                check = residual_with(value, m).coeff(k_star)
            if abs(check) > tol:
                raise ResonanceFailure(
                    f"order-{m} solve left residual {abs(check):.3e} (resonant theta?)")
        coeffs[m - min_exp] = value
    return FormalSeries(leading_tag=leading_tag, theta=theta, order=N,
                        min_exp=min_exp, coeffs=tuple(complex(c) for c in coeffs))


# ---------------------------------------------------------------------------
# number-theoretic guards on theta

def _near_int(z: complex, tol: float = 1e-9) -> Optional[int]:
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    if abs(z.real - n) > tol:
        return None
    return n


def _in_pos_even(z: complex) -> bool:
    n = _near_int(z)
    return n is not None and n >= 2 and n % 2 == 0


def _in_nonpos_even(z: complex) -> bool:
    n = _near_int(z)
    return n is not None and n <= 0 and n % 2 == 0


def _in_neg_even(z: complex) -> bool:
    n = _near_int(z)
    return n is not None and n <= -2 and n % 2 == 0


def _in_pos_int(z: complex) -> bool:
    n = _near_int(z)
    return n is not None and n >= 1


def _in_nonpos_int(z: complex) -> bool:
    n = _near_int(z)
    return n is not None and n <= 0


# ---------------------------------------------------------------------------
# truncated families (generic)

_HALF_PI = 0.5 * math.pi
_3HALF_PI = 1.5 * math.pi


def _trunc_conditions(variant: str, th: ThetaTriple):
    """(failed-condition list, mu, L) for the four generic variants."""
    t0, t1, ti = th.theta0, th.theta1, th.thetaInf
    fails = []
    if variant == "Trunc00":
        if _in_pos_even(t0 - t1 - ti):
            fails.append("theta0-theta1-thetaInf in 2N")
        if _in_nonpos_even(t0 + t1 + ti):
            fails.append("theta0+theta1+thetaInf in -2N or 0")
        if _in_pos_int(t1):
            fails.append("theta1 in N")
        mu = 2 * t1 + ti - 1.0
        L = 0.5 * (t0 - t1 - ti)
    elif variant == "Trunc01":
        if _in_neg_even(t0 - t1 - ti):
            fails.append("theta0-theta1-thetaInf in -2N")
        if _in_nonpos_even(t0 + t1 - ti):
            fails.append("theta0+theta1-thetaInf in -2N or 0")
        if _in_pos_int(t0):
            fails.append("theta0 in N")
        mu = 2 * t0 - ti - 1.0
        L = -0.5 * (t0 - t1 - ti)
    elif variant == "TruncInf0":
        if _in_pos_even(t0 + t1 - ti):
            fails.append("theta0+theta1-thetaInf in 2N")
        if _in_nonpos_even(t0 - t1 + ti):
            fails.append("theta0-theta1+thetaInf in -2N or 0")
        if _in_nonpos_int(t1):
            fails.append("theta1 in -N or 0")
        mu = 1.0 - 2 * t1 + ti
        L = 0.5 * (t1 - t0 - ti)
    elif variant == "TruncInf1":
        if _in_pos_even(t0 + t1 + ti):
            fails.append("theta0+theta1+thetaInf in 2N")
        if _in_pos_even(t0 - t1 + ti) or abs(t0 - t1 + ti) < 1e-9:
            fails.append("theta0-theta1+thetaInf in 2N or 0")
        if _in_nonpos_int(t0):
            fails.append("theta0 in -N or 0")
        mu = 1.0 - 2 * t0 - ti
        L = 0.5 * (t0 - t1 + ti)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return fails, mu, L


def _trunc_sector(variant: str, trivial: bool):
    """Validity sector; the doubly-truncated member reaches a full turn."""
    if variant in ("Trunc00", "TruncInf0", "NonGeneric1", "NonGeneric3"):
        if trivial:
            return (-_HALF_PI, _3HALF_PI), (False, False)
        return (-_HALF_PI, _HALF_PI), (False, True)
    if trivial:
        return (-_3HALF_PI, _HALF_PI), (False, False)
    return (-_HALF_PI, _HALF_PI), (True, False)


def build_trunc_family(variant: str, c0: complex, theta: ThetaTriple,
                       utilde: complex) -> Tuple[MonodromyPair, AsymptoticDescriptor]:
    """Monodromy pair and descriptor for one exponentially-truncated family."""
    fails, mu, L = _trunc_conditions(variant, theta)
    if fails:
        raise ThetaViolation("; ".join(fails))
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    pi = cmath.pi
    two_pi_i = 2j * pi
    ut = complex(utilde)
    if abs(ut) < 1e-300:
        raise ValueError("gauge parameter utilde must be nonzero")

    if variant == "Trunc00":
        m0_11 = cmath.exp(-1j * pi * (t1 + ti))
        m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (
            complex_gamma(1.0 - 0.5 * (t0 - t1 - ti))
            * complex_gamma(0.5 * (t0 + t1 + ti)) * ut)
        m0_22 = 2.0 * cmath.cos(pi * t0) - m0_11
        m0_12 = (m0_11 * m0_22 - 1.0) / m0_21
        m1_11 = cmath.exp(1j * pi * t1)
        m1_21 = two_pi_i * cmath.exp(1j * pi * t1) * c0 / (complex_gamma(1.0 - t1) * ut)
        m0 = Mat2C(m0_11, m0_12, m0_21, m0_22)
        m1 = Mat2C(m1_11, 0.0, m1_21, cmath.exp(-1j * pi * t1))
    elif variant == "Trunc01":
        m0_11 = cmath.exp(-1j * pi * t0)
        m0_12 = two_pi_i * cmath.exp(1j * pi * (ti - t0)) * ut * c0 / complex_gamma(1.0 - t0)
        m0 = Mat2C(m0_11, m0_12, 0.0, cmath.exp(1j * pi * t0))
        m1_11 = cmath.exp(1j * pi * (t0 - ti))
        m1_12 = two_pi_i * ut / (
            complex_gamma(1.0 + 0.5 * (t0 - t1 - ti))
            * complex_gamma(0.5 * (t0 + t1 - ti)))
        m1_22 = 2.0 * cmath.cos(pi * t1) - m1_11
        m1_21 = (m1_11 * m1_22 - 1.0) / m1_12
        m1 = Mat2C(m1_11, m1_12, m1_21, m1_22)
    elif variant == "TruncInf0":
        m0_11 = cmath.exp(1j * pi * (t1 - ti))
        m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (
            complex_gamma(1.0 - 0.5 * (t0 + t1 - ti))
            * complex_gamma(0.5 * (t0 - t1 + ti)) * ut)
        m0_22 = 2.0 * cmath.cos(pi * t0) - m0_11
        m0_12 = (m0_11 * m0_22 - 1.0) / m0_21
        m1_11 = cmath.exp(-1j * pi * t1)
        m1_21 = two_pi_i * cmath.exp(-1j * pi * t1) * c0 / (complex_gamma(t1) * ut)
        m0 = Mat2C(m0_11, m0_12, m0_21, m0_22)
        m1 = Mat2C(m1_11, 0.0, m1_21, cmath.exp(1j * pi * t1))
    else:  # TruncInf1
        m0_11 = cmath.exp(1j * pi * t0)
        m0_12 = two_pi_i * cmath.exp(1j * pi * (ti + t0)) * ut * c0 / complex_gamma(t0)
        m0 = Mat2C(m0_11, m0_12, 0.0, cmath.exp(-1j * pi * t0))
        m1_11 = cmath.exp(-1j * pi * (t0 + ti))
        m1_12 = two_pi_i * ut / (
            complex_gamma(1.0 - 0.5 * (t0 + t1 + ti))
            * complex_gamma(-0.5 * (t0 - t1 + ti)))
        m1_22 = 2.0 * cmath.cos(pi * t1) - m1_11
        m1_21 = (m1_11 * m1_22 - 1.0) / m1_12
        m1 = Mat2C(m1_11, m1_12, m1_21, m1_22)

    pair = MonodromyPair(m0, m1, theta)
    sector, closed = _trunc_sector(variant, abs(c0) < 1e-300)
    desc = AsymptoticDescriptor(
        variant=variant,
        params={"c0": complex(c0), "mu": mu, "L": L, "r": 1.0},
        sector=sector, sector_closed=closed, theta=theta)
    return pair, desc


def recover_c0(variant: str, pair: MonodromyPair) -> complex:
    """Invert the entry-ratio relation for the family constant (gauge free)."""
    th = pair.theta
    t0, t1, ti = th.theta0, th.theta1, th.thetaInf
    pi = cmath.pi
    if variant == "Trunc00":
        pref = cmath.exp(-1j * pi * (t1 + ti)) * complex_gamma(1.0 - t1) / (
            complex_gamma(1.0 - 0.5 * (t0 - t1 - ti)) * complex_gamma(0.5 * (t0 + t1 + ti)))
        return pref * pair.m1.m21 / pair.m0.m21
    if variant == "Trunc01":
        pref = cmath.exp(1j * pi * (t0 - ti)) * complex_gamma(1.0 - t0) / (
            complex_gamma(1.0 + 0.5 * (t0 - t1 - ti)) * complex_gamma(0.5 * (t0 + t1 - ti)))
        return pref * pair.m0.m12 / pair.m1.m12
    if variant == "TruncInf0":
        pref = cmath.exp(1j * pi * (t1 - ti)) * complex_gamma(t1) / (
            complex_gamma(1.0 - 0.5 * (t0 + t1 - ti)) * complex_gamma(0.5 * (t0 - t1 + ti)))
        return pref * pair.m1.m21 / pair.m0.m21
    if variant == "TruncInf1":
        pref = cmath.exp(-1j * pi * (ti + t0)) * complex_gamma(t0) / (
            complex_gamma(1.0 - 0.5 * (t0 + t1 + ti)) * complex_gamma(-0.5 * (t0 - t1 + ti)))
        return pref * pair.m0.m12 / pair.m1.m12
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# truncated families (resonant theta)

_NG_CONDITIONS = {
    # case: (branch -> (combo, target_sign_of_2nu, diag_sign)), exclusion
    1: {"first": lambda th, nu: th.theta0 - th.theta1 - th.thetaInf - 2 * nu,
        "second": lambda th, nu: th.theta0 + th.theta1 + th.thetaInf + 2 * (nu - 1)},
    2: {"first": lambda th, nu: th.theta0 - th.theta1 - th.thetaInf + 2 * nu,
        "second": lambda th, nu: th.theta0 + th.theta1 - th.thetaInf + 2 * (nu - 1)},
    3: {"first": lambda th, nu: th.theta0 + th.theta1 - th.thetaInf - 2 * nu,
        "second": lambda th, nu: th.theta0 - th.theta1 + th.thetaInf + 2 * (nu - 1)},
    4: {"first": lambda th, nu: th.theta0 + th.theta1 + th.thetaInf - 2 * nu,
        "second": lambda th, nu: th.theta0 - th.theta1 + th.thetaInf - 2 * (nu - 1)},
}


def build_trunc_nongeneric(case: int, branch: str, nu: int, c0: complex,
                           theta: ThetaTriple, utilde: complex
                           ) -> Tuple[MonodromyPair, AsymptoticDescriptor]:
    """Resonant-theta truncated families: both off-products vanish (R5 data)."""
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    if branch not in ("first", "second"):
        raise ValueError("branch must be 'first' or 'second'")
    if nu < 1:
        raise ConditionMismatch("nu must be a positive integer")
    combo = _NG_CONDITIONS[case][branch](theta, nu)
    if abs(combo) > 1e-9:
        raise ConditionMismatch(
            f"resonance condition off by {abs(combo):.2e} for case {case} {branch}")
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    if case == 1 and _in_pos_int(t1):
        raise ConditionMismatch("case 1 needs theta1 not in N")
    if case == 2 and _in_pos_int(t0):
        raise ConditionMismatch("case 2 needs theta0 not in N")
    if case == 3 and _in_nonpos_int(t1):
        raise ConditionMismatch("case 3 needs theta1 not in -N or 0")
    if case == 4 and _in_nonpos_int(t0):
        raise ConditionMismatch("case 4 needs theta0 not in -N or 0")

    pi = cmath.pi
    two_pi_i = 2j * pi
    ut = complex(utilde)

    if case in (1, 3):
        # upper-triangular M0 fixed by the branch
        if branch == "first":
            m0_11 = cmath.exp(-1j * pi * t0)
            m0_12 = two_pi_i * cmath.exp(1j * pi * (ti - t0)) * ut \
                * reciprocal_gamma(nu) * reciprocal_gamma(1.0 - t0 + nu)
        else:
            m0_11 = cmath.exp(1j * pi * t0)
            m0_12 = two_pi_i * cmath.exp(1j * pi * (ti + t0)) * ut \
                * reciprocal_gamma(nu - 1.0) * reciprocal_gamma(t0 + nu)
        m0 = Mat2C(m0_11, m0_12, 0.0, 1.0 / m0_11)
        if case == 1:
            m1_11 = cmath.exp(1j * pi * t1)
            m1_21 = two_pi_i * cmath.exp(1j * pi * t1) * c0 / (complex_gamma(1.0 - t1) * ut)
        else:
            m1_11 = cmath.exp(-1j * pi * t1)
            m1_21 = two_pi_i * cmath.exp(-1j * pi * t1) * c0 / (complex_gamma(t1) * ut)
        m1 = Mat2C(m1_11, 0.0, m1_21, 1.0 / m1_11)
    else:
        # upper-triangular M0 carries c0; lower-triangular M1 fixed by branch
        if case == 2:
            m0_11 = cmath.exp(-1j * pi * t0)
            m0_12 = two_pi_i * cmath.exp(1j * pi * (ti - t0)) * ut * c0 \
                / complex_gamma(1.0 - t0)
        else:
            m0_11 = cmath.exp(1j * pi * t0)
            m0_12 = two_pi_i * cmath.exp(1j * pi * (ti + t0)) * ut * c0 \
                / complex_gamma(t0)
        m0 = Mat2C(m0_11, m0_12, 0.0, 1.0 / m0_11)
        if branch == "first":
            m1_11 = cmath.exp(1j * pi * t1)
            m1_21 = two_pi_i * cmath.exp(1j * pi * t1) \
                * reciprocal_gamma(nu) * reciprocal_gamma(1.0 - t1 + nu) / ut
        else:
            m1_11 = cmath.exp(-1j * pi * t1)
            m1_21 = two_pi_i * cmath.exp(-1j * pi * t1) \
                * reciprocal_gamma(nu - 1.0) * reciprocal_gamma(t1 + nu) / ut
        m1 = Mat2C(m1_11, 0.0, m1_21, 1.0 / m1_11)

    pair = MonodromyPair(m0, m1, theta)
    if case == 1:
        mu = 2 * t1 + ti - 1.0
        L = 0.5 * (t0 - t1 - ti)
    elif case == 2:
        mu = 2 * t0 - ti - 1.0
        L = -0.5 * (t0 - t1 - ti)
    elif case == 3:
        mu = 1.0 - 2 * t1 + ti
        L = 0.5 * (t1 - t0 - ti)
    else:
        mu = 1.0 - 2 * t0 - ti
        L = 0.5 * (t0 - t1 + ti)
    sector, closed = _trunc_sector(f"NonGeneric{case}", abs(c0) < 1e-300)
    desc = AsymptoticDescriptor(
        variant="NonGeneric",
        params={"c0": complex(c0), "mu": mu, "L": L, "r": 1.0},
        sector=sector, sector_closed=closed, theta=theta, case=case, nu=nu)
    return pair, desc


def recover_c0_nongeneric(case: int, branch: str, nu: int,
                          pair: MonodromyPair) -> complex:
    """Family constant from the gauge-invariant product of the off-entries."""
    th = pair.theta
    t0, t1, ti = th.theta0, th.theta1, th.thetaInf
    pi = cmath.pi
    prod = pair.m0.m12 * pair.m1.m21
    if case in (1, 3):
        if branch == "first":
            fixed = cmath.exp(1j * pi * (ti - t0)) * reciprocal_gamma(nu) \
                * reciprocal_gamma(1.0 - t0 + nu)
        else:
            fixed = cmath.exp(1j * pi * (ti + t0)) * reciprocal_gamma(nu - 1.0) \
                * reciprocal_gamma(t0 + nu)
        if case == 1:
            carrier = cmath.exp(1j * pi * t1) / complex_gamma(1.0 - t1)
        else:
            carrier = cmath.exp(-1j * pi * t1) / complex_gamma(t1)
    else:
        if branch == "first":
            fixed = cmath.exp(1j * pi * t1) * reciprocal_gamma(nu) \
                * reciprocal_gamma(1.0 - t1 + nu)
        else:
            fixed = cmath.exp(-1j * pi * t1) * reciprocal_gamma(nu - 1.0) \
                * reciprocal_gamma(t1 + nu)
        if case == 2:
            carrier = cmath.exp(1j * pi * (ti - t0)) / complex_gamma(1.0 - t0)
        else:
            carrier = cmath.exp(1j * pi * (ti + t0)) / complex_gamma(t0)
    denom = (2j * pi) ** 2 * fixed * carrier
    if abs(denom) < 1e-300:
        raise DomainViolation("fixed off-entry vanishes; constant not recoverable")
    return prod / denom


# ---------------------------------------------------------------------------
# evaluation of truncated families

def series_tag_for(d: AsymptoticDescriptor) -> str:
    """Which formal-series leading family a descriptor evaluates against."""
    v = d.variant
    if v in ("TruncAK", "DoublyTruncAK", "Trig"):
        return "minus_one"
    if v == "Trunc00" or (v == "NonGeneric" and d.case == 1):
        return "small0"
    if v == "Trunc01" or (v == "NonGeneric" and d.case == 2):
        return "small1"
    if v == "TruncInf0" or (v == "NonGeneric" and d.case == 3):
        return "large0"
    if v == "TruncInf1" or (v == "NonGeneric" and d.case == 4):
        return "large1"
    if v == "TruncBoundary":
        return str(d.params["series_tag"])
    raise ValueError(f"no series tag for variant {v!r}")


def eval_trunc(x: complex, d: AsymptoticDescriptor, series: FormalSeries) -> complex:
    """Series value plus the family's single exponential correction."""
    if not in_sector(x, d):
        raise OutsideValidity(f"arg(x)={cmath.phase(x):.4f} outside sector {d.sector}")
    v = d.variant
    base = series.eval(x)

    if v == "DoublyTruncAK":
        return base
    if v == "TruncAK":
        amp = d.params["amp"]
        direction = d.params["direction"].real
        return base + amp * TWO_SQRT2 * cmath.exp(0.25j * math.pi) \
            * x ** (-0.5) * cmath.exp(direction * 0.5j * x)

    if v in ("Trunc00", "Trunc01", "TruncInf0", "TruncInf1", "NonGeneric"):
        c0 = d.params["c0"]
        mu = d.params["mu"]
        L = d.params["L"]
        r = complex(d.params.get("r", 1.0)).real
        if abs(c0) > 0.0:
            size = abs(x ** mu * cmath.exp(-x))
            if size > abs(x) ** (-r):
                raise OutsideValidity(
                    f"|x^mu e^-x| = {size:.3e} exceeds |x|^-r at this x")
        small_type = v in ("Trunc00", "Trunc01") or (v == "NonGeneric" and d.case in (1, 2))
        if small_type:
            return base + L * c0 * x ** (mu - 1.0) * cmath.exp(-x)
        return x / (x / base + c0 * x ** mu * cmath.exp(-x))

    if v == "TruncBoundary":
        c0 = d.params["c0"]
        mu = d.params["mu"]
        r = complex(d.params.get("r", 1.0)).real
        if abs(c0) > 0.0:
            size = abs(x ** mu * cmath.exp(x))
            if size > abs(x) ** (-r):
                raise OutsideValidity(
                    f"|x^mu e^x| = {size:.3e} exceeds |x|^-r at this x")
        coeff = d.params["corr_coeff"]
        corr_exp = d.params["corr_exp"]
        return base + coeff * c0 * x ** corr_exp * cmath.exp(x)

    raise ValueError(f"eval_trunc cannot handle variant {v!r}")


# ---------------------------------------------------------------------------
# elliptic-strip phase shift and evaluation

def phase_shift_x0(pair: MonodromyPair, phi: float, sol: BoutrouxSolution) -> complex:
    """Phase shift of the elliptic leading term for |phi| < pi/2, phi != 0."""
    if not (-_HALF_PI < phi < 0.0 or 0.0 < phi < _HALF_PI):
        raise WrongSector(f"phi={phi} outside (-pi/2, 0) u (0, pi/2)")
    th = pair.theta
    scale = 1.0 + pair.norm_inf()
    prod = pair.m0.m21 * pair.m1.m12
    if abs(prod) < 1e-12 * scale * scale:
        raise DomainViolation("off-entry product vanishes (not elliptic data)")
    if phi < 0.0:
        anchor = pair.m0.m11
        if abs(anchor) < 1e-12 * scale:
            raise DomainViolation("m0_11 vanishes for phi < 0")
        frak_m = cmath.exp(0.5j * cmath.pi * th.thetaInf) * anchor
    else:
        anchor = pair.m1.m11
        if abs(anchor) < 1e-12 * scale:
            raise DomainViolation("m1_11 vanishes for phi > 0")
        frak_m = cmath.exp(-0.5j * cmath.pi * th.thetaInf) / anchor
    oa, ob = sol.omegaA, sol.omegaB
    if oa is None or ob is None:
        raise DomainViolation("degenerate periods at this phi")
    log_b = cmath.log(cmath.exp(1j * cmath.pi * th.thetaInf) * prod)
    x0 = -(ob * log_b + oa * cmath.log(frak_m)) / (1j * cmath.pi) - oa - ob
    return reduce_mod_lattice(x0, 2.0 * oa, 2.0 * ob)


def breve_pair(pair: MonodromyPair) -> MonodromyPair:
    """Conjugate both matrices by the first upper Stokes factor."""
    st = stokes_from_pair(pair)
    s2 = StokesMatrices(st.s1, st.s2, pair.theta.thetaInf).matrix(2)
    s2i = s2.inv()
    return MonodromyPair(s2i @ pair.m0 @ s2, s2i @ pair.m1 @ s2, pair.theta)


def phase_shift_breve(pair: MonodromyPair, phi: float, sol: BoutrouxSolution) -> complex:
    """Phase shift on the upper-left rays, via the conjugated pair."""
    upper = _HALF_PI < phi < math.pi
    lower = math.pi < phi < _3HALF_PI
    if not (upper or lower):
        raise WrongSector(f"phi={phi} outside (pi/2, pi) u (pi, 3pi/2)")
    th = pair.theta
    br = breve_pair(pair)
    scale = 1.0 + br.norm_inf()
    prod = br.m0.m12 * br.m1.m21
    if abs(prod) < 1e-12 * scale * scale:
        raise DomainViolation("breve off-entry product vanishes")
    if upper:
        anchor = br.m0.m22
        if abs(anchor) < 1e-12 * scale:
            raise DomainViolation("breve m0_22 vanishes for pi/2 < phi < pi")
        frak_m = cmath.exp(0.5j * cmath.pi * th.thetaInf) / anchor
    else:
        anchor = br.m1.m22
        if abs(anchor) < 1e-12 * scale:
            raise DomainViolation("breve m1_22 vanishes for pi < phi < 3pi/2")
        frak_m = cmath.exp(-0.5j * cmath.pi * th.thetaInf) * anchor
    oa, ob = sol.omegaA, sol.omegaB
    if oa is None or ob is None:
        raise DomainViolation("degenerate periods at this phi")
    log_b = cmath.log(cmath.exp(1j * cmath.pi * th.thetaInf) / prod)
    x0 = -(ob * log_b + oa * cmath.log(frak_m)) / (1j * cmath.pi) - oa - ob
    return reduce_mod_lattice(x0, 2.0 * oa, 2.0 * ob)


def eval_elliptic(x: complex, d: AsymptoticDescriptor,
                  sol: BoutrouxSolution) -> Tuple[complex, complex, complex]:
    """Leading elliptic value (y, y', zfrak) away from the pole disks."""
    A = d.params["A"]
    x0 = d.params["x0"]
    k = cmath.sqrt(A)
    if k.real < 0:
        k = -k
    u = 0.5 * (x - x0)
    try:
        sn, cn, dn = sn_cn_dn(u, k)
    except NearPole as exc:
        raise InsidePoleDisk(str(exc)) from exc
    w = k * sn
    if abs(w - 1.0) < 1e-10:
        raise InsidePoleDisk("Moebius image pole (w near 1)")
    y = (w + 1.0) / (w - 1.0)
    yp = -k * cn * dn / (w - 1.0) ** 2
    th = d.theta
    zfrak = -x * (yp - y) / (2.0 * (y - 1.0) ** 2) \
        + (th.theta0 + th.theta1) / (2.0 * (y - 1.0)) \
        - (th.theta0 - th.theta1 + th.thetaInf) / 4.0
    return y, yp, zfrak


# ---------------------------------------------------------------------------
# general-solution entries and boundary families

def general_solution_monodromy(p: GeneralSolutionParams,
                               theta: ThetaTriple) -> MonodromyPair:
    """Monodromy entries of the two-parameter family near a vertical ray."""
    if p.side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    s = p.sigma
    pi = cmath.pi
    two_pi_i = 2j * pi
    if abs(p.c0) < 1e-300:
        raise UnderdeterminedCompletion("c0 = 0 leaves m0_21 undefined")
    m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (
        complex_gamma(1.0 - 0.25 * (s + 2 * t0 - ti))
        * complex_gamma(-0.25 * (s - 2 * t0 - ti)) * p.c0 * p.utilde)
    m1_12 = two_pi_i * p.cx * p.utilde / (
        complex_gamma(1.0 - 0.25 * (s + 2 * t1 + ti))
        * complex_gamma(-0.25 * (s - 2 * t1 + ti)))
    if abs(m0_21) < 1e-300 or abs(m1_12) < 1e-300:
        raise UnderdeterminedCompletion("a constructed off-entry vanished")
    ew = cmath.exp(-1j * pi * ti)
    if p.side == "upper":
        m1_11 = cmath.exp(-0.5j * pi * (s + ti))
        m1_22 = 2.0 * cmath.cos(pi * t1) - m1_11
        m1_21 = (m1_11 * m1_22 - 1.0) / m1_12
        m0_11 = (ew - m0_21 * m1_12) / m1_11
        m0_22 = 2.0 * cmath.cos(pi * t0) - m0_11
        m0_12 = (m0_11 * m0_22 - 1.0) / m0_21
    else:
        m0_11 = cmath.exp(0.5j * pi * (s - ti))
        m0_22 = 2.0 * cmath.cos(pi * t0) - m0_11
        m0_12 = (m0_11 * m0_22 - 1.0) / m0_21
        m1_11 = (ew - m0_21 * m1_12) / m0_11
        m1_22 = 2.0 * cmath.cos(pi * t1) - m1_11
        m1_21 = (m1_11 * m1_22 - 1.0) / m1_12
    return MonodromyPair(Mat2C(m0_11, m0_12, m0_21, m0_22),
                         Mat2C(m1_11, m1_12, m1_21, m1_22), theta)


_BOUNDARY_FAMILIES = ("small0_upper", "large1_lower", "large0_upper", "small1_lower")


def trunc_boundary_families(which: str, params: Dict[str, complex],
                            theta: ThetaTriple
                            ) -> Tuple[MonodromyPair, AsymptoticDescriptor]:
    """The four truncated families living on the left-pointing rays.

    These carry an e^{+x} correction (decaying there since Re x < 0); the
    small-type members add it at the product-with-x level outside the
    bracket, the large-type members inside, which changes the y-level
    coefficient; both shapes are encoded literally.
    """
    if which not in _BOUNDARY_FAMILIES:
        raise ValueError(f"unknown boundary family {which!r}")
    c = complex(params.get("c", params.get("cx", 0.0)))
    ut = complex(params.get("utilde", 1.0))
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    pi = cmath.pi
    two_pi_i = 2j * pi

    if which == "small0_upper":
        m1_11 = cmath.exp(1j * pi * t1)
        m1_12 = two_pi_i * c * ut / complex_gamma(t1)
        m1 = Mat2C(m1_11, m1_12, 0.0, cmath.exp(-1j * pi * t1))
        m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (
            complex_gamma(1.0 - 0.5 * (t0 - t1 - ti))
            * complex_gamma(0.5 * (t0 + t1 + ti)) * ut)
        m0_11 = cmath.exp(-1j * pi * t1) * (cmath.exp(-1j * pi * ti) - m0_21 * m1_12)
        m0_22 = 2.0 * cmath.cos(pi * t0) - m0_11
        m0_12 = (m0_11 * m0_22 - 1.0) / m0_21
        m0 = Mat2C(m0_11, m0_12, m0_21, m0_22)
        mu = 1.0 - 2 * t1 - ti
        corr_coeff, corr_exp = 1.0 + 0.0j, mu - 1.0
        series_tag = "small0"
        sector, closed = (_HALF_PI, _3HALF_PI), (True, False)
    elif which == "small1_lower":
        m0_11 = cmath.exp(-1j * pi * t0)
        m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (complex_gamma(t0) * ut)
        m0 = Mat2C(m0_11, 0.0, m0_21, cmath.exp(1j * pi * t0))
        m1_12 = two_pi_i * c * ut / (
            complex_gamma(1.0 + 0.5 * (t0 - t1 - ti))
            * complex_gamma(0.5 * (t0 + t1 - ti)))
        m1_11 = cmath.exp(1j * pi * t0) * (cmath.exp(-1j * pi * ti) - m0_21 * m1_12)
        m1_22 = 2.0 * cmath.cos(pi * t1) - m1_11
        m1_21 = (m1_11 * m1_22 - 1.0) / m1_12 if abs(m1_12) > 0 else 0.0
        m1 = Mat2C(m1_11, m1_12, m1_21, m1_22)
        mu = ti - 2 * t0 + 1.0
        corr_coeff, corr_exp = 1.0 + 0.0j, mu - 1.0
        series_tag = "small1"
        sector, closed = (-_3HALF_PI, -_HALF_PI), (False, True)
    elif which == "large1_lower":
        m0_11 = cmath.exp(1j * pi * t0)
        m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (complex_gamma(1.0 - t0) * ut)
        m0 = Mat2C(m0_11, 0.0, m0_21, cmath.exp(-1j * pi * t0))
        m1_12 = two_pi_i * c * ut / (
            complex_gamma(1.0 - 0.5 * (t0 + t1 + ti))
            * complex_gamma(-0.5 * (t0 - t1 + ti)))
        m1_11 = cmath.exp(-1j * pi * t0) * (cmath.exp(-1j * pi * ti) - m0_21 * m1_12)
        m1_22 = 2.0 * cmath.cos(pi * t1) - m1_11
        m1_21 = (m1_11 * m1_22 - 1.0) / m1_12 if abs(m1_12) > 0 else 0.0
        m1 = Mat2C(m1_11, m1_12, m1_21, m1_22)
        mu = 2 * t0 + ti - 1.0
        corr_coeff = 2.0 / (t0 - t1 + ti)
        corr_exp = mu + 1.0
        series_tag = "large1"
        sector, closed = (-_3HALF_PI, -_HALF_PI), (False, True)
    else:  # large0_upper
        m1_11 = cmath.exp(-1j * pi * t1)
        m1_12 = two_pi_i * c * ut / complex_gamma(1.0 - t1)
        m1 = Mat2C(m1_11, m1_12, 0.0, cmath.exp(1j * pi * t1))
        m0_21 = two_pi_i * cmath.exp(-1j * pi * ti) / (
            complex_gamma(1.0 - 0.5 * (t0 + t1 - ti))
            * complex_gamma(0.5 * (t0 - t1 + ti)) * ut)
        m0_11 = cmath.exp(1j * pi * t1) * (cmath.exp(-1j * pi * ti) - m0_21 * m1_12)
        m0_22 = 2.0 * cmath.cos(pi * t0) - m0_11
        m0_12 = (m0_11 * m0_22 - 1.0) / m0_21
        m0 = Mat2C(m0_11, m0_12, m0_21, m0_22)
        mu = 2 * t1 - ti - 1.0
        corr_coeff = -2.0 / (t0 - t1 + ti)
        corr_exp = mu + 1.0
        series_tag = "large0"
        sector, closed = (_HALF_PI, _3HALF_PI), (True, False)

    pair = MonodromyPair(m0, m1, theta)
    desc = AsymptoticDescriptor(
        variant="TruncBoundary",
        params={"c0": c, "mu": mu, "corr_coeff": corr_coeff,
                "corr_exp": corr_exp, "series_tag": series_tag,
                "which": which, "r": 1.0 + 0.0j},
        sector=sector, sector_closed=closed, theta=theta)
    return pair, desc
