"""Asymptotic solution families and their monodromy-data constants.

Covers the elliptic-strip leading term with its phase shift, the
trigonometric family on the positive axis, the exponentially truncated
families in the four standard variants (plus the resonant non-generic
ones and the four boundary-ray families), the formal power series they
all sit on, and the general-solution entry formulas; `family_at` evaluates
any descriptor's family at a point, and `phase_shift` picks the route.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .boutroux_elliptic import (BoutrouxSolution, _reduce, _sn_kernel, _theta_quads,
                                reduce_mod_lattice, sn_cn_dn, solve_boutroux)
from .errors import (
    CaseGap,
    ConditionMismatch,
    DomainViolation,
    InsidePoleDisk,
    NearPole,
    OrderOutOfRange,
    OutsideValidity,
    PoleOfGamma,
    ResonanceFailure,
    ThetaViolation,
    UnderdeterminedCompletion,
    WrongSector,
)
from .mono_core import (Mat2C, MonodromyPair, ThetaTriple, ZeroTest, conjugate_pair,
                        stokes_from_pair)
from .oracle import zfrak_from_y_yprime

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
_EXP_QUARTER_PI_I = cmath.exp(0.25j * math.pi)
_TWO_PI = 2.0 * math.pi
SQRT_2PI = math.sqrt(2.0 * math.pi)


# Lanczos's approximation with g = 7 and n = 9 (C. Lanczos, SIAM J. Numer.
# Anal. B 1, 1964), for Re z >= 1/2; the reflection formula covers the rest.
_LANCZOS_G = 7.0
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _lanczos_gamma(z: complex) -> complex:
    """Gamma(z) for Re z >= 1/2."""
    z -= 1.0
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return SQRT_2PI * cmath.exp((z + 0.5) * cmath.log(t) - t) * x


def _sin_pi(z: complex) -> complex:
    """sin(pi z), reduced by the nearest integer first, so that it keeps
    its relative accuracy near its zeros."""
    n = round(z.real)
    s = cmath.sin(math.pi * (z - n))
    return -s if n % 2 else s


def complex_gamma(z: complex) -> complex:
    """Gamma function for complex argument, guarded at its poles."""
    z = complex(z)
    if abs(z.imag) < 1e-12:
        n = round(z.real)
        if n <= 0 and abs(z.real - n) < 1e-12:
            raise PoleOfGamma(f"Gamma pole at {n}")
    if z.real < 0.5:
        return math.pi / (_sin_pi(z) * _lanczos_gamma(1.0 - z))
    return _lanczos_gamma(z)


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma, entire; returns exactly 0 at the poles of Gamma."""
    z = complex(z)
    if abs(z.imag) < 1e-12:
        n = round(z.real)
        if n <= 0 and abs(z.real - n) < 1e-12:
            return 0.0 + 0.0j
    if z.real < 0.5:
        return _sin_pi(z) * _lanczos_gamma(1.0 - z) / math.pi
    return 1.0 / _lanczos_gamma(z)


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
        """sum_i a_i x^-(min_exp + i), by Horner's rule in 1/x."""
        r = 1.0 / x
        total = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            total = total * r + c
        return total * x ** -self.min_exp

    def eval_deriv(self, x: complex) -> complex:
        """d/dx of `eval`, by Horner's rule in 1/x on -(min_exp + i) a_i."""
        r = 1.0 / x
        total = 0.0 + 0.0j
        e = self.min_exp + len(self.coeffs)
        for c in reversed(self.coeffs):
            e -= 1
            total = total * r - e * c
        return total * x ** (-self.min_exp - 1)

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
    for a in (ph, ph - _TWO_PI, ph + _TWO_PI):
        if (a > lo + 1e-12 or lo_closed and a >= lo - 1e-12) \
                and (a < hi - 1e-12 or hi_closed and a <= hi + 1e-12):
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
    zero = ZeroTest(pair)
    m011, m111 = pair.m0.m11, pair.m1.m11
    prod = pair.m0.m21 * pair.m1.m12
    if zero.vanishes(m011, 1e-12) or zero.vanishes(m111, 1e-12) \
            or zero.vanishes(prod, 1e-12, 2):
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

    if mode == "sine" and abs(beta0) < 1e-12:
        return -1.0 + 0.0j
    if vhat == 0 and mode != "exp_minus":  # whose vhat -> 0 limit is y = -1
        raise DomainViolation(f"trig mode {mode} needs vhat != 0")
    if mode == "sine":
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

# Series kind: (min_exp, s, slope sigma of the leading coefficient a0).
# Linearising the cleared residual about a0 x^-min_exp, a_m first enters it
# at x^-(m + s), linearly and with slope sigma, at every order m.
_SERIES_KINDS = {
    "minus_one": (0, -2, lambda a0: 1.0),
    "small": (1, -1, lambda a0: 2.0 * a0),
    "large": (-1, -4, lambda a0: -2.0 * a0 * a0),
}
_SERIES_MAX_ORDER = 20


def _series_kind(leading_tag: str) -> str:
    if leading_tag == "minus_one":
        return leading_tag
    if leading_tag not in _BY_TAG:
        raise ValueError(f"unknown leading_tag {leading_tag!r}")
    return leading_tag[:5]


def series_order_bounds(leading_tag: str) -> Tuple[int, int]:
    """Lowest and highest order N that `formal_series_pv` takes for a tag."""
    return _SERIES_KINDS[_series_kind(leading_tag)][0], _SERIES_MAX_ORDER


def _cleared_residual_pass(y: List[complex], min_exp: int, s: int, N: int,
                           sigma: complex, th: ThetaTriple) -> None:
    """Solve a_(min_exp + 1)..a_N into y in one pass over the cleared residual.

    The series is y = sum_k y[k] x^-(B + k), B = min(min_exp, 0), with
    y[k] = 0 past the coefficients set so far. The cleared residual

        2 x^2 y (y-1) y'' - x^2 (3y-1) (y')^2 + 2 x y (y-1) y'
        - 2 (y-1)^3 (a y^2 - b) - 2 c x y^2 (y-1) + x^2 y^2 (y+1)

    is summed as 2 (yy - y) E - (3y - 1) dd - 2 m3 (a yy - b)
    - 2 c x (y3 - yy) + x^2 (y3 + yy) from six Cauchy products: yy = y^2,
    y3 = yy y, dd = D^2, (3y - 1) dd, (yy - y) E and m3 (a yy - b), with
    m3 = (y - 1)^3 = y3 - 3 (yy - y) - 1, D = x y' and E = x^2 y'' + x y',
    which scale x^-e by -e and e^2. Entry k of every list is its
    coefficient of x^-(j B + k), where j B is the lowest power the list can
    start at: j = 1 for y, D, E and 3y - 1, 2 for yy, dd, yy - y and
    a yy - b, 3 for y3, m3 and the triple products, 5 for the m3 product.
    So entry k depends on y[0..k] alone, and the residual's coefficient of
    x^-(q + 3B) reads the triple products at q, the m3 product at q - 2B,
    and yy and y3 up to q + 2.

    Step q appends one entry to each list: yy and y3 at q + 2, yy - y at
    q - B, D to the triple products at q, and a yy - b, m3 and their
    product at q - 2B. A product entry is one sum over an operand and the
    other reversed: E, dd and a yy - b are kept newest first, y (shared by
    yy and y3) and D are reversed by a slice. Once q + 3B = m + s, the
    step solves a_m = -rho_m / sigma, which sits at y[p], p = m - B. The
    top entries of yy and y3 (on the large rows also of a yy - b, m3 and
    their product) were summed with a_m = 0; they are the only entries
    that hold a_m, and they hold it linearly, so they get its exact linear
    term from the products, not from sigma: yy[p + j] gains 2 y[j] a_m,
    y3[p + j] is its inner sum plus the end terms yy[j] a_m and
    yy[p + j] y[0], and the large rows' entries follow y3 and yy. Every
    entry the residual at x^-(m + s) reads is then
    final, so the check that reads it there is the one a pass over the
    finished lists would make: ResonanceFailure where it exceeds
    1e-8 max(1, |rho_m|) or is not a number.
    """
    B = min(min_exp, 0)
    a, b, c2 = complex(th.a_theta), complex(th.b_theta), 2.0 * complex(th.c_theta)
    # e2 holds 2 E, so p12 = 2 (yy - y) E - (3y - 1) dd is one list
    yy, y3, u, d, e2, v, dd, p12, w, m3, p3 = [], [], [], [], [], [], [], [], [], [], []
    mul = operator.mul
    # a_m sits at p = q + 2 - j, j below the top of yy and y3: j = 1 on the
    # small rows, where y[0] = 0, so yy[p] and y3 gain nothing, and 0
    # elsewhere. The top of a yy - b, m3 and their product is q - 2B, which
    # is p on the large rows alone.
    j = 2 + s - 2 * B
    m3_holds_am = -2 * B == 2 - j
    solve_from = min_exp + 1 + s - 3 * B
    for q in range(-2, N + s - 3 * B + 1):
        rev = y[q + 2::-1]
        inner = sum(map(mul, yy, rev))      # y3[q + 2] but its last term
        yy.append(sum(map(mul, y, rev)))
        y3.append(inner + yy[-1] * y[0])
        if q >= B:
            u.append(yy[q - B] - y[q] if q >= 0 else yy[q - B])
        if q >= 0:
            e = B + q
            yk = y[q]
            d.append(-e * yk)
            e2.insert(0, 2 * e * e * yk)
            v.append(3.0 * yk - 1.0 if e == 0 else 3.0 * yk)
            dd.insert(0, sum(map(mul, d, d[::-1])))
            p12.append(sum(map(mul, u, e2)) - sum(map(mul, v, dd)))
        k = q - 2 * B
        if k >= 0:
            w.insert(0, a * yy[k] - b if q == 0 else a * yy[k])
            t = y3[k] - 3.0 * u[-1] if q >= B else y3[k]
            m3.append(t - 1.0 if q + B == 0 else t)
            p3.append(sum(map(mul, m3, w)))
        if q < solve_from:
            continue
        # the residual at x^-(m + s), m = q - s + 3B; a_m reaches none of
        # the entries in rest
        i = q + 1 + B
        rest = (p12[q] if q >= 0 else 0.0) \
            - c2 * (y3[q + 1] - (yy[i] if i >= 0 else 0.0))
        rho = rest - 2.0 * (p3[-1] if p3 else 0.0) + y3[-1] + yy[i + 1]
        if sigma != 0:
            p = q + 2 - j
            am = y[p] = -rho / sigma
            g = 2.0 * y[j] * am
            yy[-1] += g
            y3_top = inner + yy[j] * am + yy[-1] * y[0]
            if m3_holds_am:
                dy3, dw = y3_top - y3[-1], a * g
                w[0] += dw
                m3[-1] += dy3
                p3[-1] += dy3 * w[-1] + m3[0] * dw
            y3[-1] = y3_top
        # the same sum, over entries that are final now
        left = rest - 2.0 * (p3[-1] if p3 else 0.0) + y3[-1] + yy[i + 1]
        if not abs(left) <= 1e-8 * max(1.0, abs(rho)):
            # NaN fails too
            raise ResonanceFailure(
                f"order-{q - s + 3 * B} solve left residual {abs(left):.3e}"
                " (resonant theta?)")


def formal_series_pv(leading_tag: str, theta: ThetaTriple, N: int) -> FormalSeries:
    """Coefficients of the doubly-truncated power-series solution.

    y = sum_{min_exp <= m <= N} a_m x^-m starts at a0 = -1 (`minus_one`, the
    Andreev-Kitaev family), a0 = L at x^-1 (`small0/1`) or a0 = 1/L at x^1
    (`large0/1`), where L is that of the family-table row with the tag.
    Each later a_m is resolved at x^-(m + s) of the polynomial-cleared
    residual, which it enters linearly with a slope sigma fixed by a0:

        minus_one   s = -2   sigma = 1
        small*      s = -1   sigma = 2 a0
        large*      s = -4   sigma = -2 a0^2

    The residual's coefficient at x^-(m + s) with a_m = 0 is rho_m, and
    a_m = -rho_m / sigma. The residual is kept as incremental Cauchy
    products (the Taylor method of Jorba and Zou, Exp. Math. 14, 2005),
    grown in one pass by `_cleared_residual_pass`: each order appends one
    entry to each product and gives the few entries that already hold a_m
    its exact linear term. No later coefficient reaches x^-(m + s), so the
    entries the residual there reads are final once a_m is set, and the
    check reads it off them: ResonanceFailure where it exceeds
    1e-8 max(1, |rho_m|) (|sigma a_m| = |rho_m|) or is not a number.

    L = 0: on the small rows y = 0 solves the equation (b_theta = L^2/2 = 0);
    sigma = 0 leaves every a_m at 0 and the check confirms it. The
    large rows have no leading coefficient 1/L there and raise
    ResonanceFailure. N runs from min_exp to 20 (`series_order_bounds`).
    """
    kind = _series_kind(leading_tag)
    if kind == "minus_one":
        a0 = -1.0
    else:
        a0 = _BY_TAG[leading_tag].L(theta.theta0, theta.theta1, theta.thetaInf)
    if N > _SERIES_MAX_ORDER:
        raise ValueError(f"order capped at {_SERIES_MAX_ORDER} (coefficient growth)")
    min_exp, s, slope = _SERIES_KINDS[kind]
    if N < min_exp:
        raise ValueError("order below the leading exponent")
    if kind == "large":
        if a0 == 0:
            raise ResonanceFailure(f"{leading_tag} series starts at 1/L, and L = 0")
        a0 = 1.0 / a0
    B = min(min_exp, 0)
    # y[k] is a_(B + k), zero past a_N as far as the last step reads
    y = [0j] * (N + s - 3 * B + 3)
    y[min_exp - B] = complex(a0)
    if N > min_exp:
        _cleared_residual_pass(y, min_exp, s, N, slope(a0), theta)
    return FormalSeries(leading_tag=leading_tag, theta=theta, order=N,
                        min_exp=min_exp,
                        coeffs=tuple(y[min_exp - B:N - B + 1]))


# ---------------------------------------------------------------------------
# integer membership of theta combinations

def _as_int(value) -> Optional[int]:
    """Integer content of a scalar.

    Exact for int and Fraction; a float or complex value counts when both
    its imaginary part and its distance to the nearest integer are at most
    1e-9.
    """
    if not isinstance(value, (float, complex)):
        if isinstance(value, Integral):
            return int(value)
        if isinstance(value, Fraction):
            return int(value) if value.denominator == 1 else None
    z = complex(value)
    if abs(z.imag) > 1e-9:
        return None
    n = round(z.real)
    return n if abs(z.real - n) <= 1e-9 else None


def _member(value, kind: str) -> bool:
    """Membership in N, -N u {0}, Z or 2Z."""
    n = _as_int(value)
    if n is None:
        return False
    if kind == "N":
        return n >= 1
    if kind == "-N0":
        return n <= 0
    if kind == "Z":
        return True
    if kind == "2Z":
        return n % 2 == 0
    raise ValueError(kind)


_SET_TEXT = {"N": "N", "-N0": "-N or 0"}


# ---------------------------------------------------------------------------
# the family table: truncated families and their resonant replacements

_HALF_PI = 0.5 * math.pi
_3HALF_PI = 1.5 * math.pi
_TWO_PI_I = 2j * math.pi


class _Family(NamedTuple):
    """Row k: the generic truncated variant k and the resonant case k.

    first and second are theta combinations, as coefficients of (theta0,
    theta1, thetaInf), signed so that the generic family needs first not in
    2N and second not in -2N u {0}; `conditions` names the two as the error
    messages do. Where one of them fails, resonant case k takes over on that
    branch with nu = first/2 or nu = 1 - second/2, and the generic family's
    fixed off-entry 1/(Gamma(1 - first/2) Gamma(second/2)) has its poles
    exactly there. c0 rides in the off-entry `carrier` of a triangular
    matrix with diagonal e^{i pi e} and Gamma argument g, (e, g) =
    carrier_eg(theta0, theta1, thetaInf); the poles of Gamma(g) are the
    excluded set.
    """

    variant: str
    region: str             # sign region of classify_region
    first: Tuple[int, int, int]
    second: Tuple[int, int, int]
    conditions: Tuple[str, str]
    excluded: Tuple[str, str]   # theta component and "N" or "-N0"
    mu: Callable[..., complex]
    L: Callable[..., complex]
    upper: bool             # sector closed at +pi/2 (at -pi/2 otherwise)
    tag: str                # series; small* add the correction, large* invert
    carrier: str            # "m1_21" or "m0_12"
    carrier_eg: Callable[..., Tuple[complex, complex]]


_FAMILIES = (
    _Family(variant="Trunc00", region="R3plus",
            first=(1, -1, -1), second=(1, 1, 1),
            conditions=("theta0-theta1-thetaInf in 2N",
                        "theta0+theta1+thetaInf in -2N or 0"),
            excluded=("theta1", "N"),
            mu=lambda t0, t1, ti: 2 * t1 + ti - 1.0,
            L=lambda t0, t1, ti: 0.5 * (t0 - t1 - ti),
            upper=True, tag="small0", carrier="m1_21",
            carrier_eg=lambda t0, t1, ti: (t1, 1.0 - t1)),
    _Family(variant="Trunc01", region="R4minus",
            first=(-1, 1, 1), second=(1, 1, -1),
            conditions=("theta0-theta1-thetaInf in -2N",
                        "theta0+theta1-thetaInf in -2N or 0"),
            excluded=("theta0", "N"),
            mu=lambda t0, t1, ti: 2 * t0 - ti - 1.0,
            L=lambda t0, t1, ti: -0.5 * (t0 - t1 - ti),
            upper=False, tag="small1", carrier="m0_12",
            carrier_eg=lambda t0, t1, ti: (-t0, 1.0 - t0)),
    _Family(variant="TruncInf0", region="R3minus",
            first=(1, 1, -1), second=(1, -1, 1),
            conditions=("theta0+theta1-thetaInf in 2N",
                        "theta0-theta1+thetaInf in -2N or 0"),
            excluded=("theta1", "-N0"),
            mu=lambda t0, t1, ti: 1.0 - 2 * t1 + ti,
            L=lambda t0, t1, ti: 0.5 * (t1 - t0 - ti),
            upper=True, tag="large0", carrier="m1_21",
            carrier_eg=lambda t0, t1, ti: (-t1, t1)),
    _Family(variant="TruncInf1", region="R4plus",
            first=(1, 1, 1), second=(-1, 1, -1),
            conditions=("theta0+theta1+thetaInf in 2N",
                        "theta0-theta1+thetaInf in 2N or 0"),
            excluded=("theta0", "-N0"),
            mu=lambda t0, t1, ti: 1.0 - 2 * t0 - ti,
            L=lambda t0, t1, ti: 0.5 * (t0 - t1 + ti),
            upper=False, tag="large1", carrier="m0_12",
            carrier_eg=lambda t0, t1, ti: (t0, t0)),
)
_BY_VARIANT = {row.variant: row for row in _FAMILIES}
_BY_TAG = {row.tag: row for row in _FAMILIES}
_BRANCHES = ("first", "second")


def _family(variant: str) -> _Family:
    if variant not in _BY_VARIANT:
        raise ValueError(f"unknown variant {variant!r}")
    return _BY_VARIANT[variant]


def _resonant_row(case: int, branch: str) -> Tuple[_Family, int]:
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    if branch not in _BRANCHES:
        raise ValueError("branch must be 'first' or 'second'")
    return _FAMILIES[case - 1], _BRANCHES.index(branch)


def _partner(case: int, j: int) -> _Family:
    """Row whose carrier shape the branch-j fixed matrix of a resonant case has.

    It sits on the other matrix: row 1 or 2 (Gamma(1 - theta)) on the first
    branch, row 3 or 4 (Gamma(theta)) on the second.
    """
    return _FAMILIES[case % 2 + 2 * j]


def _combos(row: _Family, theta: ThetaTriple):
    """The row's two signed theta combinations, first and second."""
    (f0, f1, fi), (s0, s1, si) = row.first, row.second
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    return f0 * t0 + f1 * t1 + fi * ti, s0 * t0 + s1 * t1 + si * ti


def _resonance_nu(j: int, combo) -> Optional[int]:
    """nu of the resonant branch j (0 first, 1 second) combo sits on, or None."""
    n = _as_int(combo)
    if n is None or n % 2:
        return None
    nu = 1 - n // 2 if j else n // 2
    return nu if nu >= 1 else None


def _excluded(row: _Family, theta: ThetaTriple) -> bool:
    name, kind = row.excluded
    return _member(getattr(theta, name), kind)


def _generic_failures(row: _Family, theta: ThetaTriple, combos) -> List[str]:
    """The conditions of a generic variant that theta breaks.

    combos are the row's two theta combinations, from `_combos`.
    """
    fails = [name for j, (name, combo) in enumerate(zip(row.conditions, combos))
             if _resonance_nu(j, combo) is not None]
    if _excluded(row, theta):
        name, kind = row.excluded
        fails.append(f"{name} in {_SET_TEXT[kind]}")
    return fails


def _trunc_sector(row: _Family, trivial: bool):
    """Validity sector; the doubly-truncated member reaches a full turn."""
    if trivial:
        return ((-_HALF_PI, _3HALF_PI) if row.upper
                else (-_3HALF_PI, _HALF_PI)), (False, False)
    return (-_HALF_PI, _HALF_PI), ((False, True) if row.upper else (True, False))


def _family_descriptor(row: _Family, c0: complex, theta: ThetaTriple,
                       trivial: bool, case: int = 0,
                       nu: int = 0) -> AsymptoticDescriptor:
    """Descriptor of the generic variant of a row, or of its resonant case."""
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    sector, closed = _trunc_sector(row, trivial)
    return AsymptoticDescriptor(
        variant="NonGeneric" if case else row.variant,
        params={"c0": complex(c0), "mu": row.mu(t0, t1, ti),
                "L": row.L(t0, t1, ti), "r": 1.0},
        sector=sector, sector_closed=closed, theta=theta, case=case, nu=nu)


def _descriptor_row(d: AsymptoticDescriptor) -> Optional[_Family]:
    """Table row of a Trunc* or NonGeneric descriptor; None for other variants."""
    if d.variant != "NonGeneric":
        return _BY_VARIANT.get(d.variant)
    if d.case not in (1, 2, 3, 4):
        raise ValueError(f"resonant case {d.case} is not 1..4")
    return _FAMILIES[d.case - 1]


# ---------------------------------------------------------------------------
# matrices of the table's families

def _triangle(row: _Family, theta: ThetaTriple):
    """Diagonal, off-entry phase and Gamma argument of a row's carrier matrix."""
    e, g = row.carrier_eg(theta.theta0, theta.theta1, theta.thetaInf)
    d = cmath.exp(1j * cmath.pi * e)
    if row.carrier == "m1_21":
        return d, d, g
    return d, cmath.exp(1j * cmath.pi * (theta.thetaInf + e)), g


def _triangular(row: _Family, d: complex, entry: complex) -> Mat2C:
    if row.carrier == "m1_21":
        return Mat2C(d, 0.0, entry, 1.0 / d)
    return Mat2C(d, entry, 0.0, 1.0 / d)


def _carrier(row: _Family, theta: ThetaTriple, c0: complex, ut: complex):
    """Diagonal and off-entry of the matrix that carries c0.

    The generic variant and the resonant case of a row share it.
    """
    d, phase, g = _triangle(row, theta)
    if row.carrier == "m1_21":
        return d, _TWO_PI_I * phase * c0 / (complex_gamma(g) * ut)
    return d, _TWO_PI_I * phase * ut * c0 / complex_gamma(g)


def _fixed_entry(row: _Family, theta: ThetaTriple, ut: complex,
                 combos) -> complex:
    """Off-entry of the generic full matrix, opposite the carrier.

    combos are the row's two theta combinations, from `_combos`.
    """
    a = 1.0 - 0.5 * combos[0]
    b = 0.5 * combos[1]
    if row.carrier == "m1_21":
        return _TWO_PI_I * cmath.exp(-1j * cmath.pi * theta.thetaInf) / (
            complex_gamma(a) * complex_gamma(b) * ut)
    return _TWO_PI_I * ut / (complex_gamma(a) * complex_gamma(b))


def _resonant_fixed(case: int, j: int, nu: int, theta: ThetaTriple,
                    ut: complex):
    """Diagonal and off-entry of the matrix branch j of a resonant case fixes.

    The partner's carrier matrix, with c0 / Gamma(g) replaced by
    1 / (Gamma(nu - j) Gamma(g + nu)).
    """
    partner = _partner(case, j)
    d, phase, g = _triangle(partner, theta)
    if partner.carrier == "m1_21":
        return d, _TWO_PI_I * phase * reciprocal_gamma(nu - j) \
            * reciprocal_gamma(g + nu) / ut
    return d, _TWO_PI_I * phase * ut * reciprocal_gamma(nu - j) \
        * reciprocal_gamma(g + nu)


def _completed(j: int, f11: complex, off: complex, theta: ThetaTriple) -> Mat2C:
    """M_j from its (1,1) entry and its off-entry in the product constraint.

    That entry is m0_21 for j = 0 and m1_12 for j = 1, and must be nonzero;
    (2,2) follows from the trace 2cos(pi theta_j), the other off-entry from
    det = 1.
    """
    f22 = 2.0 * cmath.cos(cmath.pi * (theta.theta1 if j else theta.theta0)) - f11
    other = (f11 * f22 - 1.0) / off
    return Mat2C(f11, off, other, f22) if j else Mat2C(f11, other, off, f22)


# ---------------------------------------------------------------------------
# truncated families: build and recover

def build_trunc_family(variant: str, c0: complex, theta: ThetaTriple,
                       utilde: complex) -> Tuple[MonodromyPair, AsymptoticDescriptor]:
    """Monodromy pair and descriptor for one exponentially-truncated family."""
    row = _family(variant)
    combos = _combos(row, theta)
    fails = _generic_failures(row, theta, combos)
    if fails:
        raise ThetaViolation("; ".join(fails))
    ut = complex(utilde)
    if abs(ut) < 1e-300:
        raise ValueError("gauge parameter utilde must be nonzero")
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    carrier = _triangular(row, *_carrier(row, theta, c0, ut))
    # the other matrix: diagonal e^{-i pi thetaInf} over the carrier's,
    # the fixed off-entry, and its trace and determinant completed
    fixed = _fixed_entry(row, theta, ut, combos)
    e = row.carrier_eg(t0, t1, ti)[0]
    f11 = cmath.exp(-1j * cmath.pi * (e + ti))
    if row.carrier == "m1_21":
        m0, m1 = _completed(0, f11, fixed, theta), carrier
    else:
        m0, m1 = carrier, _completed(1, f11, fixed, theta)
    return MonodromyPair(m0, m1, theta), \
        _family_descriptor(row, c0, theta, abs(c0) < 1e-300)


def recover_c0(variant: str, pair: MonodromyPair) -> complex:
    """Invert the entry-ratio relation for the family constant (gauge free).

    The carrier-to-fixed entry ratio of the pair over the same ratio at
    c0 = 1.
    """
    row = _family(variant)
    if row.carrier == "m1_21":
        ratio = pair.m1.m21 / pair.m0.m21
    else:
        ratio = pair.m0.m12 / pair.m1.m12
    th = pair.theta
    return ratio * _fixed_entry(row, th, 1.0, _combos(row, th)) \
        / _carrier(row, th, 1.0, 1.0)[1]


def build_trunc_nongeneric(case: int, branch: str, nu: int, c0: complex,
                           theta: ThetaTriple, utilde: complex
                           ) -> Tuple[MonodromyPair, AsymptoticDescriptor]:
    """Resonant-theta truncated families: both off-products vanish (R5 data)."""
    row, j = _resonant_row(case, branch)
    if nu < 1:
        raise ConditionMismatch("nu must be a positive integer")
    combo = _combos(row, theta)[j]
    if _resonance_nu(j, combo) != nu:
        off = combo - (2 - 2 * nu if j else 2 * nu)
        raise ConditionMismatch(
            f"resonance condition off by {float(abs(off)):.2e} for case {case} {branch}")
    if _excluded(row, theta):
        name, kind = row.excluded
        raise ConditionMismatch(f"case {case} needs {name} not in {_SET_TEXT[kind]}")
    ut = complex(utilde)
    carrier = _triangular(row, *_carrier(row, theta, c0, ut))
    fixed = _triangular(_partner(case, j), *_resonant_fixed(case, j, nu, theta, ut))
    m0, m1 = (fixed, carrier) if row.carrier == "m1_21" else (carrier, fixed)
    return MonodromyPair(m0, m1, theta), \
        _family_descriptor(row, c0, theta, abs(c0) < 1e-300, case, nu)


def recover_c0_nongeneric(case: int, branch: str, nu: int,
                          pair: MonodromyPair) -> complex:
    """Family constant from the gauge-invariant product of the off-entries."""
    row, j = _resonant_row(case, branch)
    th = pair.theta
    denom = _carrier(row, th, 1.0, 1.0)[1] * _resonant_fixed(case, j, nu, th, 1.0)[1]
    if abs(denom) < 1e-300:
        raise DomainViolation("fixed off-entry vanishes; constant not recoverable")
    return pair.m0.m12 * pair.m1.m21 / denom


# ---------------------------------------------------------------------------
# evaluation of truncated families

def series_tag_for(d: AsymptoticDescriptor) -> str:
    """Which formal-series leading family a descriptor evaluates against."""
    v = d.variant
    if v in ("TruncAK", "DoublyTruncAK", "Trig"):
        return "minus_one"
    if v == "TruncBoundary":
        return str(d.params["series_tag"])
    row = _descriptor_row(d)
    if row is None:
        raise ValueError(f"no series tag for variant {v!r}")
    return row.tag


def eval_trunc(x: complex, d: AsymptoticDescriptor, series: FormalSeries) -> complex:
    """Series value plus the family's single exponential correction.

    The table rows carry c0 x^mu e^-x and TruncBoundary c0 x^mu e^x; that
    factor is computed once, for the size guard |x^mu e^(-/+x)| <= |x|^-r
    (when c0 != 0) and for the value. x = 0 is outside every family.
    """
    if x == 0:
        raise OutsideValidity("x = 0 is outside every truncated family")
    if not in_sector(x, d):
        raise OutsideValidity(f"arg(x)={cmath.phase(x):.4f} outside sector {d.sector}")
    v = d.variant
    params = d.params
    base = series.eval(x)

    if v == "DoublyTruncAK":
        return base
    if v == "TruncAK":
        return base + params["amp"] * TWO_SQRT2 * _EXP_QUARTER_PI_I \
            * x ** (-0.5) * cmath.exp(params["direction"].real * 0.5j * x)

    if v == "TruncBoundary":
        row, sign = None, 1.0
    else:
        row, sign = _descriptor_row(d), -1.0
        if row is None:
            raise ValueError(f"eval_trunc cannot handle variant {v!r}")
    c0 = params["c0"]
    mu = params["mu"]
    corr = x ** mu * cmath.exp(sign * x)
    if abs(c0) > 0.0:
        size = abs(corr)
        if size > abs(x) ** -complex(params.get("r", 1.0)).real:
            raise OutsideValidity(
                f"|x^mu e^{'x' if row is None else '-x'}| = {size:.3e} "
                "exceeds |x|^-r at this x")
    if row is None:
        return base + params["corr_coeff"] * c0 * corr \
            * x ** (params["corr_exp"] - mu)
    if row.tag.startswith("small"):
        return base + params["L"] * c0 * corr / x
    return x / (x / base + c0 * corr)


# ---------------------------------------------------------------------------
# elliptic-strip phase shift and evaluation

def phase_shift_x0(pair: MonodromyPair, phi: float, sol: BoutrouxSolution) -> complex:
    """Phase shift of the elliptic leading term for |phi| < pi/2, phi != 0."""
    if not (-_HALF_PI < phi < 0.0 or 0.0 < phi < _HALF_PI):
        raise WrongSector(f"phi={phi} outside (-pi/2, 0) u (0, pi/2)")
    th = pair.theta
    zero = ZeroTest(pair)
    prod = pair.m0.m21 * pair.m1.m12
    if zero.vanishes(prod, 1e-12, 2):
        raise DomainViolation("off-entry product vanishes (not elliptic data)")
    if phi < 0.0:
        anchor = pair.m0.m11
        if zero.vanishes(anchor, 1e-12):
            raise DomainViolation("m0_11 vanishes for phi < 0")
        frak_m = cmath.exp(0.5j * cmath.pi * th.thetaInf) * anchor
    else:
        anchor = pair.m1.m11
        if zero.vanishes(anchor, 1e-12):
            raise DomainViolation("m1_11 vanishes for phi > 0")
        frak_m = cmath.exp(-0.5j * cmath.pi * th.thetaInf) / anchor
    return _phase_shift(cmath.exp(1j * cmath.pi * th.thetaInf) * prod,
                        frak_m, sol)


def _phase_shift(b: complex, frak_m: complex, sol: BoutrouxSolution) -> complex:
    """x0 from the elliptic monodromy coordinates b and frak_m, reduced
    modulo the period lattice."""
    oa, ob = sol.omegaA, sol.omegaB
    if oa is None or ob is None:
        raise DomainViolation("degenerate periods at this phi")
    x0 = -(ob * cmath.log(b) + oa * cmath.log(frak_m)) / (1j * cmath.pi) - oa - ob
    return reduce_mod_lattice(x0, 2.0 * oa, 2.0 * ob)


def breve_pair(pair: MonodromyPair) -> MonodromyPair:
    """Conjugate both matrices by the first upper Stokes factor: S2^-1 M S2."""
    s2 = stokes_from_pair(pair).matrix(2)
    return conjugate_pair(pair, s2.inv(), pair.theta)


def phase_shift_breve(pair: MonodromyPair, phi: float, sol: BoutrouxSolution) -> complex:
    """Phase shift on the upper-left rays, via the conjugated pair."""
    upper = _HALF_PI < phi < math.pi
    lower = math.pi < phi < _3HALF_PI
    if not (upper or lower):
        raise WrongSector(f"phi={phi} outside (pi/2, pi) u (pi, 3pi/2)")
    th = pair.theta
    br = breve_pair(pair)
    zero = ZeroTest(br)
    prod = br.m0.m12 * br.m1.m21
    if zero.vanishes(prod, 1e-12, 2):
        raise DomainViolation("breve off-entry product vanishes")
    if upper:
        anchor = br.m0.m22
        if zero.vanishes(anchor, 1e-12):
            raise DomainViolation("breve m0_22 vanishes for pi/2 < phi < pi")
        frak_m = cmath.exp(0.5j * cmath.pi * th.thetaInf) / anchor
    else:
        anchor = br.m1.m22
        if zero.vanishes(anchor, 1e-12):
            raise DomainViolation("breve m1_22 vanishes for pi < phi < 3pi/2")
        frak_m = cmath.exp(-0.5j * cmath.pi * th.thetaInf) * anchor
    return _phase_shift(cmath.exp(1j * cmath.pi * th.thetaInf) / prod,
                        frak_m, sol)


def eval_elliptic(x: complex, d: AsymptoticDescriptor,
                  sol: BoutrouxSolution) -> Tuple[complex, complex, complex]:
    """Leading elliptic value (y, y', zfrak) away from the pole disks; sol
    is the modulus at arg x, which must be the descriptor's A (1e-9 relative).

    y = (w + 1)/(w - 1) with w = k sn(u, k), u = (x - x0)/2 and k = sqrt(A),
    Re k >= 0. Everything is read off one set of theta sums at u: with
    D = alpha theta1 - theta4 (alpha and beta from the kernel record of A,
    `boutroux_elliptic._SnKernel`),

        y = (alpha theta1 + theta4)/D,  y' = -beta theta2 theta3/D^2,
        y - 1 = 2 theta4/D,

    and zfrak = -x (y' - y)/(2 (y - 1)^2) + (theta0 + theta1)/(2 (y - 1))
    - (theta0 - theta1 + thetaInf)/4 takes y - 1 in that form.

    InsidePoleDisk is raised on the sn pole lattice (|theta4| below 1e-12
    of max(|theta1|, 1)), where |sn| would pass 1e8 and where |w - 1| would
    fall below 1e-10 (|D| below 1e-10 |theta4|), the Moebius image pole.
    """
    A = d.params["A"]
    if abs(sol.A - A) > 1e-9 * abs(A):
        raise OutsideValidity(f"modulus A = {sol.A} at arg x, not the descriptor's {A}")
    kernel = _sn_kernel(A, math.copysign(1.0, A.real), math.copysign(1.0, A.imag))
    u = 0.5 * (x - d.params["x0"])
    m = kernel.modulus
    if m is None:
        t1, t2, t3 = sn_cn_dn(u, kernel.k)
        t4 = 1.0
    else:
        t1, t2, t3, t4 = _theta_quads(m.scale * _reduce(u, m.p1, m.p2, m.det)[0],
                                      m.half_powers, m.square_powers)
        if abs(t4) < 1e-12 * max(abs(t1), 1.0):
            raise InsidePoleDisk("argument sits on the sn pole lattice")
        if abs(m.z3_z2 * t1) > 1e8 * abs(t4):
            raise InsidePoleDisk("sn overflow guard tripped")
    at1 = kernel.alpha * t1
    den = at1 - t4
    if abs(den) < 1e-10 * abs(t4):
        raise InsidePoleDisk("Moebius image pole (w near 1)")
    y = (at1 + t4) / den
    yp = -kernel.beta * t2 * t3 / (den * den)
    r = den / t4  # 2/(y - 1)
    th = d.theta
    zfrak = r * (0.25 * (th.theta0 + th.theta1) - 0.125 * x * (yp - y) * r) \
        - (th.theta0 - th.theta1 + th.thetaInf) / 4.0
    return y, yp, zfrak


def phase_shift(pair: MonodromyPair,
                phi: float) -> Tuple[str, complex, BoutrouxSolution]:
    """(route, x0, modulus at phi): the phase shift by the route phi picks.

    Route x0 (`phase_shift_x0`) covers the open quadrants of (-pi/2, pi/2),
    breve (`phase_shift_breve`) the upper-left rays of (pi/2, pi) u
    (pi, 3pi/2); each raises WrongSector off its own rays.
    """
    sol = solve_boutroux(phi)
    if phi > _HALF_PI:
        return "breve", phase_shift_breve(pair, phi, sol), sol
    return "x0", phase_shift_x0(pair, phi, sol), sol


# ---------------------------------------------------------------------------
# a family at a point

# The params each variant's evaluator reads (eval_elliptic, eval_trig,
# eval_trunc and series_tag_for); a table row reads L only for a small*
# series, and NonGeneric case k reads as row k does. TEXT_PARAMS are
# strings, every other param a number.
_PARAMS_READ = {
    "Elliptic": ("A", "x0"), "Trig": ("beta0", "vhat"),
    "TruncAK": ("amp", "direction"), "DoublyTruncAK": (),
    "TruncBoundary": ("series_tag", "c0", "mu", "corr_coeff", "corr_exp"),
    **{row.variant: (("c0", "mu", "L") if row.tag.startswith("small")
                     else ("c0", "mu")) for row in _FAMILIES},
}
TEXT_PARAMS = ("series_tag", "which")


def params_read(d: AsymptoticDescriptor) -> Tuple[str, ...]:
    """The params d's evaluator reads; () for a variant or a resonant case
    the evaluators refuse themselves."""
    if d.variant == "NonGeneric":
        return _PARAMS_READ[_FAMILIES[d.case - 1].variant] \
            if d.case in (1, 2, 3, 4) else ()
    return _PARAMS_READ.get(d.variant, ())


def family_y(d: AsymptoticDescriptor,
             order: int = 8) -> Callable[[complex], complex]:
    """y of the descriptor's family at any point; a series family builds its
    series here, once (OrderOutOfRange outside `series_order_bounds`)."""
    if d.variant == "Elliptic":
        return lambda xx: eval_elliptic(xx, d, solve_boutroux(cmath.phase(xx)))[0]
    if d.variant == "Trig":
        return lambda xx: eval_trig(xx, d)
    tag = series_tag_for(d)
    lo, hi = series_order_bounds(tag)
    if not lo <= order <= hi:
        raise OrderOutOfRange(
            f"the {tag} series takes orders {lo} to {hi}, not {order}")
    series = formal_series_pv(tag, d.theta, order)
    return lambda xx: eval_trunc(xx, d, series)


def family_at(d: AsymptoticDescriptor, x: complex, order: int = 8,
              y_of: Optional[Callable[[complex], complex]] = None
              ) -> Tuple[complex, complex, complex]:
    """(y, y', zfrak) of the descriptor's family at x.

    The elliptic family gives all three in closed form. For the others y'
    is the fourth-order central difference of y along the ray, and zfrak
    follows from both. Passing y_of = `family_y(d, order)` reuses its series.
    """
    if d.variant == "Elliptic":
        return eval_elliptic(x, d, solve_boutroux(cmath.phase(x)))
    f = family_y(d, order) if y_of is None else y_of
    he = 1e-3 * max(1.0, abs(x)) * (x / abs(x))
    y = f(x)
    yp = (8.0 * (f(x + he) - f(x - he)) - (f(x + 2.0 * he) - f(x - 2.0 * he))) \
        / (12.0 * he)
    return y, yp, zfrak_from_y_yprime(d.theta, x, y, yp)


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
        m1 = _completed(1, cmath.exp(-0.5j * pi * (s + ti)), m1_12, theta)
        m0 = _completed(0, (ew - m0_21 * m1_12) / m1.m11, m0_21, theta)
    else:
        m0 = _completed(0, cmath.exp(0.5j * pi * (s - ti)), m0_21, theta)
        m1 = _completed(1, (ew - m0_21 * m1_12) / m0.m11, m1_12, theta)
    return MonodromyPair(m0, m1, theta)


# The generic variant whose series each boundary family follows.
_BOUNDARY_FAMILIES = {"small0_upper": "Trunc00", "large1_lower": "TruncInf1",
                      "large0_upper": "TruncInf0", "small1_lower": "Trunc01"}


def trunc_boundary_families(which: str, params: Dict[str, complex],
                            theta: ThetaTriple
                            ) -> Tuple[MonodromyPair, AsymptoticDescriptor]:
    """The four truncated families living on the left-pointing rays.

    Each continues the series of a generic variant past the end of its
    sector: c rides in the transpose of that variant's carrier matrix
    (Gamma(1 - g) for Gamma(g)), the other matrix keeps its fixed
    off-entry, and mu changes sign. These carry an e^{+x} correction
    (decaying there since Re x < 0); the small-type members add it at the
    product-with-x level outside the bracket, the large-type members
    inside, which turns the y-level coefficient into 1/L.
    """
    if which not in _BOUNDARY_FAMILIES:
        raise ValueError(f"unknown boundary family {which!r}")
    row = _BY_VARIANT[_BOUNDARY_FAMILIES[which]]
    c = complex(params.get("c", params.get("cx", 0.0)))
    ut = complex(params.get("utilde", 1.0))
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    d, _, g = _triangle(row, theta)
    w = cmath.exp(-1j * cmath.pi * ti)
    fixed = _fixed_entry(row, theta, ut, _combos(row, theta))
    if row.carrier == "m1_21":
        m1_12 = _TWO_PI_I * c * ut / complex_gamma(1.0 - g)
        m1 = Mat2C(d, m1_12, 0.0, 1.0 / d)
        m0 = _completed(0, (w - fixed * m1_12) / d, fixed, theta)
    else:
        m0_21 = _TWO_PI_I * w / (complex_gamma(1.0 - g) * ut)
        m0 = Mat2C(d, 0.0, m0_21, 1.0 / d)
        m1_12 = c * fixed
        if abs(m1_12) < 1e-300:
            # M1 would be lower triangular with m1_11 fixed by the product
            # constraint, and its determinant is then not 1
            raise UnderdeterminedCompletion(f"c = 0 leaves no {which} pair")
        m1 = _completed(1, (w - m0_21 * m1_12) / d, m1_12, theta)
    mu = -row.mu(t0, t1, ti)
    if row.tag.startswith("small"):
        corr_coeff, corr_exp = 1.0 + 0.0j, mu - 1.0
    else:
        corr_coeff, corr_exp = 1.0 / row.L(t0, t1, ti), mu + 1.0
    if row.upper:
        sector, closed = (_HALF_PI, _3HALF_PI), (True, False)
    else:
        sector, closed = (-_3HALF_PI, -_HALF_PI), (False, True)

    pair = MonodromyPair(m0, m1, theta)
    desc = AsymptoticDescriptor(
        variant="TruncBoundary",
        params={"c0": c, "mu": mu, "corr_coeff": corr_coeff,
                "corr_exp": corr_exp, "series_tag": row.tag,
                "which": which, "r": 1.0 + 0.0j},
        sector=sector, sector_closed=closed, theta=theta)
    return pair, desc
