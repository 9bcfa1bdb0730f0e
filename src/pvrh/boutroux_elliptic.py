"""Elliptic layer: modulus curve, cycle integrals, sn, and the pole lattice.

Everything here lives on the genus-one curve w^2 = (1-z^2)(A-z^2) with
branch cuts [-1, -A^(1/2)] and [A^(1/2), 1]. The upper-sheet branch is
the one with z^{-2} w -> -1 at infinity. Cycle a is the doubled segment
between the inner branch points (both sheets), cycle b a counterclockwise
loop around the left cut. With those orientations every cycle integral is
a complete elliptic integral in closed form,

    omega_a = 4 K(A),                 omega_b = 2i K(1-A),
    I_a = 4 [(A-1) K(A) + E(A)],      I_b = -2i [E(1-A) - A K(1-A)],

for dz/w and for the Boutroux integrand sqrt((A-z^2)/(1-z^2)) dz, so
the periods are exactly the sn period lattice used downstream. K and E
come from the arithmetic-geometric mean, E by Gauss's sum over the AGM
steps, principal branch (cut m in [1, oo)), valid for complex A in the
strip 0 <= Re A <= 1. Each balance integral has half its period as
derivative in A, which gives the Newton solve of the Boutroux conditions
its exact Jacobian. The test suite checks the closed forms against a
plain quadrature over both cycles.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Tuple

from .errors import (DegenerateCurve, DegenerateLattice, DomainViolation,
                     NearPole, NoConvergence)

_A_DEGENERATE_TOL = 1e-12
_EPS = sys.float_info.epsilon


def _sqrt_a(A: complex) -> complex:
    """Principal square root of the modulus parameter (Re >= 0)."""
    s = cmath.sqrt(A)
    if s.real < 0:
        s = -s
    return s


def curve_w_plus(A: complex, z: complex) -> complex:
    """Upper-sheet value of w = sqrt((1-z^2)(A-z^2)).

    Built from two single-valued factors, one per cut, so the result is
    continuous everywhere off the cuts and behaves like -z^2 at infinity.
    """
    sA = _sqrt_a(A)
    m = 0.5 * (1.0 + sA)
    d = 0.5 * (1.0 - sA)
    zr = z - m
    zl = z + m
    omega = zr * cmath.sqrt(1.0 - (d / zr) ** 2) if zr != 0 else -cmath.sqrt(-(d * d))
    omega_t = zl * cmath.sqrt(1.0 - (d / zl) ** 2) if zl != 0 else -cmath.sqrt(-(d * d))
    return -omega * omega_t


@dataclass(frozen=True)
class BoutrouxSolution:
    phi: float
    A: complex
    omegaA: Optional[complex]
    omegaB: Optional[complex]
    quadrature_error: float
    residuals: Tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class PoleLattice:
    base: complex
    omegaA: complex
    omegaB: complex
    window: Tuple[float, float, float, float]
    points: Tuple[complex, ...] = field(default_factory=tuple)


def _complete_ke(m: complex) -> Tuple[complex, complex]:
    """Complete elliptic integrals K(m), E(m) from the AGM, principal branch.

    K = pi / (2 M(1, k')) with k' = sqrt(1 - m), Re k' >= 0, and Gauss's
    E = K (1 - sum_n 2^(n-1) c_n^2) over the same AGM steps, c_0^2 = m.
    At m = 1 the mean is 0: K is infinite there and E(1) = 1.
    """
    kp = cmath.sqrt(1.0 - m)
    if kp == 0:
        return complex(math.inf), 1.0 + 0.0j
    mean, gauss = _agm_gauss(1.0, kp, m)
    big_k = 0.5 * math.pi / mean
    return big_k, big_k * (1.0 - gauss)


def _legendre_defect(ke: Tuple[complex, complex],
                     ke_p: Tuple[complex, complex]) -> float:
    """|E K' + E' K - K K' - pi/2|, zero in exact arithmetic."""
    (big_k, big_e), (big_kp, big_ep) = ke, ke_p
    return abs(big_e * big_kp + big_ep * big_k - big_k * big_kp - 0.5 * math.pi)


def _a_cycle(A: complex, ke: Tuple[complex, complex]) -> Tuple[complex, complex]:
    """(period, Boutroux integral) over cycle a, from K, E at A."""
    big_k, big_e = ke
    return 4.0 * big_k, 4.0 * ((A - 1.0) * big_k + big_e)


def _b_cycle(A: complex, ke_p: Tuple[complex, complex]) -> Tuple[complex, complex]:
    """(period, Boutroux integral) over cycle b, from K, E at 1 - A."""
    big_kp, big_ep = ke_p
    return 2j * big_kp, -2j * (big_ep - A * big_kp)


def cycle_integral(A: complex, integrand_tag: str, cycle: str) -> complex:
    """Contour integral over cycle a or b.

    integrand_tag "period" integrates dz/w; "boutroux" integrates
    sqrt((A-z^2)/(1-z^2)) dz, realized as (A-z^2)/w dz on the upper sheet.
    Where a closed form diverges (the b cycle at A = 0, the a cycle at
    A = 1) the curve is degenerate and DegenerateCurve is raised.
    """
    if integrand_tag not in ("boutroux", "period"):
        raise ValueError(f"unknown integrand_tag {integrand_tag!r}")
    if cycle not in ("a", "b"):
        raise ValueError(f"unknown cycle {cycle!r}")
    if integrand_tag == "period" and (
        abs(A) < _A_DEGENERATE_TOL or abs(A - 1.0) < _A_DEGENERATE_TOL
    ):
        raise DegenerateCurve("period integral at a trigonometric limit point")
    if cycle == "a":
        period, balance = _a_cycle(A, _complete_ke(A))
    else:
        period, balance = _b_cycle(A, _complete_ke(1.0 - A))
    val = period if integrand_tag == "period" else balance
    if not cmath.isfinite(val):
        raise DegenerateCurve(f"cycle {cycle} diverges at A={A}")
    return val


_NEWTON_BUDGET = 12


def _solve_strip(phi: float) -> BoutrouxSolution:
    """Zero Re(e^{i phi} I_a) and Re(e^{i phi} I_b) for 0 < phi < pi/2.

    Newton from A = sin^2 phi + 0.43i sin 2phi. Both integrals are
    holomorphic in A with dI/dA = omega/2, so with g = e^{i phi} omega/2 the
    real Jacobian in (Re A, Im A) is [[Re g_a, -Im g_a], [Re g_b, -Im g_b]].
    Iteration stops once a step is below 1e-8 of the distance to the nearer
    degenerate end (A = 0 or 1), after which quadratic convergence leaves
    only roundoff, or below a few ulps, the floor that the cancellations in
    I_a near A = 0 and in I_b near A = 1 allow. Periods, residuals and the
    Legendre defect are those at the final A.
    """
    rot = cmath.exp(1j * phi)
    A = complex(math.sin(phi) ** 2, 0.43 * math.sin(2.0 * phi))
    settled = False
    for _ in range(_NEWTON_BUDGET):
        ke, ke_p = _complete_ke(A), _complete_ke(1.0 - A)
        oa, ia = _a_cycle(A, ke)
        ob, ib = _b_cycle(A, ke_p)
        fa, fb = (rot * ia).real, (rot * ib).real
        if settled:
            break
        ga, gb = 0.5 * rot * oa, 0.5 * rot * ob
        det = (ga.conjugate() * gb).imag
        if not math.isfinite(det) or det == 0.0:
            raise NoConvergence(f"singular modulus Jacobian at A={A}")
        step = complex(ga.imag * fb - gb.imag * fa,
                       ga.real * fb - gb.real * fa) / det
        A += step
        settled = abs(step) <= max(1e-8 * min(abs(A), abs(1.0 - A)), 4.0 * _EPS)
    else:
        raise NoConvergence(f"modulus Newton did not settle at phi={phi}")
    if not (-1e-8 <= A.real <= 1.0 + 1e-8):
        raise NoConvergence(f"modulus left the physical strip: {A}")
    return BoutrouxSolution(phi=phi, A=A, omegaA=oa, omegaB=ob,
                            quadrature_error=_legendre_defect(ke, ke_p),
                            residuals=(fa, fb))


@functools.lru_cache(maxsize=1024)
def _solve_rounded(phi: float) -> BoutrouxSolution:
    half_pi = 0.5 * math.pi
    phi_mod = phi - math.pi * math.floor(phi / math.pi)
    if phi_mod < 1e-12 or math.pi - phi_mod < 1e-12:
        return BoutrouxSolution(phi=phi, A=0.0 + 0.0j, omegaA=2.0 * math.pi + 0.0j,
                                omegaB=None, quadrature_error=0.0)
    if abs(phi_mod - half_pi) < 1e-12:
        return BoutrouxSolution(phi=phi, A=1.0 + 0.0j, omegaA=None,
                                omegaB=1j * math.pi, quadrature_error=0.0)
    if phi_mod < half_pi:
        return replace(_solve_strip(phi_mod), phi=phi)
    conj_of = _solve_strip(math.pi - phi_mod)
    return replace(conj_of, phi=phi, A=conj_of.A.conjugate(),
                   omegaA=conj_of.omegaA.conjugate(),
                   omegaB=conj_of.omegaB.conjugate())


def solve_boutroux(phi: float) -> BoutrouxSolution:
    """Modulus A_phi with both cycle conditions zeroed, plus its periods.

    The solution is periodic in phi with period pi and conjugates under
    phi -> -phi, so everything reduces to the fundamental strip [0, pi/2].
    At the two strip ends the curve degenerates and the divergent period
    is reported as None. phi is rounded to 12 decimals and the modulus is
    solved at the rounded angle, so the points of a ray share one solution
    whatever the call order; solutions are kept in a bounded LRU cache.
    quadrature_error is the defect of the Legendre relation
    E K' + E' K - K K' = pi/2 at the solved modulus (0 at the strip ends):
    the accuracy of the complete integrals behind the periods and the
    residuals.
    """
    return _solve_rounded(round(phi, 12))


def _agm_gauss(a: complex, b: complex, csq: complex) -> Tuple[complex, complex]:
    """Arithmetic-geometric mean of a, b and Gauss's sum sum_n 2^(n-1) c_n^2.

    The standard branch choice keeps |a_n - b_n| <= |a_n + b_n|. c_0^2 =
    csq = a^2 - b^2, and c_(n+1) = (a_n - b_n)/2 = c_n^2 / (4 a_(n+1)),
    which has no cancellation. Stops once a and b agree to a few ulps; the
    mean converges quadratically, so that takes at most a handful of
    square roots.
    """
    weight = 0.5
    gauss = weight * csq
    for _ in range(64):
        if abs(a - b) <= 4.0 * _EPS * abs(a):
            return 0.5 * (a + b), gauss
        a1 = 0.5 * (a + b)
        b1 = cmath.sqrt(a * b)
        if abs(a1 - b1) > abs(a1 + b1):
            b1 = -b1
        c = csq / (4.0 * a1)
        csq = c * c
        weight *= 2.0
        gauss += weight * csq
        a, b = a1, b1
    return 0.5 * (a + b), gauss


def _agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the standard branch choice."""
    return _agm_gauss(a, b, a * a - b * b)[0]


def _quarter_periods(k: complex) -> Tuple[complex, complex]:
    """(K, K') from the arithmetic-geometric mean; k is the modulus."""
    ksq = k * k
    kp = cmath.sqrt(1.0 - ksq)
    K = 0.5 * math.pi / _agm(1.0, kp)
    Kp = 0.5 * math.pi / _agm(1.0, k)
    return K, Kp


def _theta_quads(v: complex, half: Tuple[complex, ...],
                 square: Tuple[complex, ...]):
    """theta_1..theta_4 at argument v from the nome powers of one modulus.

    half[n] = q^((n + 1/2)^2) and square[n - 1] = q^(n^2). With z = e^{iv},
    the odd series sum q^((n + 1/2)^2) z^(+-(2n + 1)) and the even ones
    q^(n^2) (z^(2n) + z^(-2n)), each split by the parity of n, which
    carries the sign (-1)^n of theta_1 and theta_4. z is the only
    exponential; every higher power is one product by z^2 or z^-2 away.
    The series run over the whole tables, which `_modulus` cuts where the
    terms drop below 1e-16 anywhere in the reduced cell.
    """
    z = cmath.exp(1j * v)
    zi = 1.0 / z
    z2 = z * z
    zi2 = zi * zi
    # z^(2n + 1) and z^-(2n + 1) summed over even and over odd n
    even_p = even_m = odd_p = odd_m = 0j
    p, m = z, zi
    odd = False
    for qn in half:
        if odd:
            odd_p += qn * p
            odd_m += qn * m
        else:
            even_p += qn * p
            even_m += qn * m
        odd = not odd
        p *= z2
        m *= zi2
    # z^(2n) + z^(-2n) summed over even and over odd n
    cos_even = cos_odd = 0j
    p, m = z2, zi2
    odd = True
    for qn in square:
        if odd:
            cos_odd += qn * (p + m)
        else:
            cos_even += qn * (p + m)
        odd = not odd
        p *= z2
        m *= zi2
    return (-1j * ((even_p - even_m) - (odd_p - odd_m)),
            even_p + even_m + odd_p + odd_m,
            1.0 + cos_even + cos_odd, 1.0 + cos_even - cos_odd)


class _Modulus(NamedTuple):
    """What sn, cn, dn need of the modulus k alone.

    The period lattice 4K Z + 2iK' Z with its determinant, the scale
    pi/(2K) that takes a reduced u to the theta argument v, the nome
    powers that `_theta_quads` reads and the theta-null ratios.
    """
    p1: complex
    p2: complex
    det: float
    scale: complex
    half_powers: Tuple[complex, ...]
    square_powers: Tuple[complex, ...]
    z3_z2: complex
    z4_z2: complex
    z4_z3: complex


def _theta_terms(aq: float, power: int) -> int:
    """Length of a theta series in z^(+-power), z^(+-(power + 2)), ...

    A reduced u has |Im v| <= (pi/2) Re(K'/K), so |z^(+-1)| <= |q|^(-1/2)
    and the term q^(j^2/4) z^(+-j) is at most |q|^(j(j - 2)/4): the odd
    term n at most |q|^(n^2 - 1/4), the even term n at most |q|^(n^2 - n).
    The series ends with the first term that bound puts below 1e-16 / 2
    (the half spares the roundoff of the lattice reduction, which can take
    |Im v| a hair past the cell) and has at most 64 terms.
    """
    for n in range(64):
        if aq ** (power * (power - 2) / 4) < 0.5e-16:
            return n + 1
        power += 2
    return 64


@functools.lru_cache(maxsize=128)
def _modulus(k: complex, re_sign: float, im_sign: float) -> _Modulus:
    """Periods, lattice data, nome powers and theta-null ratios of k.

    Each power table holds the terms its series needs anywhere in the
    reduced cell (`_theta_terms`), and `_theta_quads` reads it whole.

    re_sign and im_sign, the signs of k's parts, only key the cache:
    -0.5 + 0j and -0.5 - 0j compare equal but sit on two sides of the cut
    of the square root in the AGM, so they get different K'. An exception
    is not cached, so NoConvergence and DomainViolation are raised on
    every call.
    """
    K, Kp = _quarter_periods(k)
    q = cmath.exp(-math.pi * Kp / K)
    aq = abs(q)
    if aq >= 0.999:
        raise NoConvergence("nome too close to the unit circle")
    p1, p2 = 4.0 * K, 2j * Kp
    det = _lattice_det(p1, p2)
    half = tuple(q ** ((n + 0.5) ** 2) for n in range(_theta_terms(aq, 1)))
    square = tuple(q ** (n * n) for n in range(1, _theta_terms(aq, 2) + 1))
    _, z2, z3, z4 = _theta_quads(0.0, half, square)
    return _Modulus(p1, p2, det, 0.5 * math.pi / K, half, square,
                    z3 / z2, z4 / z2, z4 / z3)


def _lattice_det(p1: complex, p2: complex) -> float:
    """Determinant of the generators p1, p2; DomainViolation if parallel."""
    det = p1.real * p2.imag - p1.imag * p2.real
    if abs(det) < 1e-14 * max(1.0, abs(p1) * abs(p2)):
        raise DomainViolation("lattice generators are numerically parallel")
    return det


def reduce_mod_lattice(v: complex, p1: complex, p2: complex) -> complex:
    """Representative of v modulo Z p1 + Z p2 with coefficients in [-1/2, 1/2)."""
    det = _lattice_det(p1, p2)
    a = (v.real * p2.imag - v.imag * p2.real) / det
    b = (p1.real * v.imag - p1.imag * v.real) / det
    return v - math.floor(a + 0.5) * p1 - math.floor(b + 0.5) * p2


def sn_cn_dn(u: complex, k: complex) -> Tuple[complex, complex, complex]:
    """Jacobi sn, cn, dn for complex argument and complex modulus k.

    Quotients of theta functions. Everything that depends on k alone (the
    period lattice and its determinant, the nome powers and the theta
    nulls) is computed once per modulus and kept in a bounded LRU cache,
    so a point of a ray pays for its lattice reduction, one exponential
    and the products of the theta series.
    """
    ksq = k * k
    if abs(ksq) < 1e-8:
        return cmath.sin(u), cmath.cos(u), 1.0 + 0.0j
    if abs(1.0 - ksq) < 1e-8:
        s = cmath.tanh(u)
        c = 1.0 / cmath.cosh(u)
        return s, c, c
    m = _modulus(k, math.copysign(1.0, k.real), math.copysign(1.0, k.imag))
    p1, p2, det = m.p1, m.p2, m.det
    a = (u.real * p2.imag - u.imag * p2.real) / det
    b = (p1.real * u.imag - p1.imag * u.real) / det
    nb = math.floor(b + 0.5)
    u_red = u - math.floor(a + 0.5) * p1 - nb * p2
    t1, t2, t3, t4 = _theta_quads(m.scale * u_red, m.half_powers,
                                  m.square_powers)
    if abs(t4) < 1e-12 * max(abs(t1), 1.0):
        raise NearPole("argument sits on the sn pole lattice")
    sn = m.z3_z2 * (t1 / t4)
    cn = m.z4_z2 * (t2 / t4)
    dn = m.z4_z3 * (t3 / t4)
    if abs(sn) > 1e8:
        raise NearPole("sn overflow guard tripped")
    if nb % 2:  # cn(u + 2iK') = -cn(u), dn(u + 2iK') = -dn(u)
        return sn, -cn, -dn
    return sn, cn, dn


def jacobi_sn(u: complex, k: complex) -> complex:
    """Jacobi sn for complex argument and complex modulus k."""
    return sn_cn_dn(u, k)[0]


def sn_derivative(u: complex, k: complex) -> complex:
    """d(sn)/du = cn * dn (insensitive to the half-lattice reduction signs)."""
    _, cn, dn = sn_cn_dn(u, k)
    return cn * dn


def pole_lattice(base: complex, sol: BoutrouxSolution,
                 window: Tuple[float, float, float, float]) -> PoleLattice:
    """Points {base + omegaA*Z + omegaB*(2Z+1)} inside a closed rectangle.

    window = (re_min, re_max, im_min, im_max).
    """
    oa, ob = sol.omegaA, sol.omegaB
    if oa is None or ob is None:
        raise DegenerateLattice("a period is infinite at this phi")
    det = (oa.conjugate() * ob).imag
    if abs(det) < 1e-12 * abs(oa) * abs(ob):
        raise DegenerateLattice("periods are numerically parallel")
    re_min, re_max, im_min, im_max = window
    corners = [complex(re_min, im_min), complex(re_min, im_max),
               complex(re_max, im_min), complex(re_max, im_max)]
    d = oa.real * ob.imag - oa.imag * ob.real
    nrange = []
    mrange = []
    for c in corners:
        u = c - base
        n = (u.real * ob.imag - u.imag * ob.real) / d
        m = (oa.real * u.imag - oa.imag * u.real) / d
        nrange.append(n)
        mrange.append(m)
    pts = []
    for n in range(int(math.floor(min(nrange))) - 1, int(math.ceil(max(nrange))) + 2):
        for m in range(int(math.floor(min(mrange))) - 1, int(math.ceil(max(mrange))) + 2):
            if m % 2 == 0:
                continue
            p = base + n * oa + m * ob
            if re_min - 1e-12 <= p.real <= re_max + 1e-12 and \
               im_min - 1e-12 <= p.imag <= im_max + 1e-12:
                pts.append(p)
    pts.sort(key=lambda p: (p.real, p.imag))
    return PoleLattice(base=base, omegaA=oa, omegaB=ob, window=window,
                       points=tuple(pts))
