"""Shared builders for the test suite.

Random pairs are produced through the connection-matrix factorization, so
every sample already sits on the monodromy manifold. Tests that need a
broken input tamper with an entry afterwards.
"""

import cmath
import importlib
import math
import pkgutil
import random

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

import pvrh
from pvrh.asymptotics import formal_series_pv
from pvrh.boutroux_elliptic import _quarter_periods, reduce_mod_lattice
from pvrh.errors import NearPole, NoConvergence, SeedDefectTooLarge
from pvrh.mono_core import (
    Mat2C,
    MonodromyPair,
    StokesMatrices,
    ThetaTriple,
    product_from_stokes,
)
from pvrh.oracle import (
    _DRIFT_ZERO_TOL,
    DriftReport,
    LinearSystemState,
    _backend_of,
    _check_clearance,
    _exp_gauge,
    _normalized_drift,
    _ray_leg,
    _ray_start,
    _seed_gauge,
    _seed_values,
    _transport,
    canonical_frame,
    direct_monodromy,
    pv_rhs_first_order,
)

THETA_DESK = ThetaTriple(1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0)


def cached_callables():
    """(qualified name, callable) of every functools cache in pvrh's modules."""
    for info in pkgutil.iter_modules(pvrh.__path__, "pvrh."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            members = {name: obj}
            if isinstance(obj, type) and obj.__module__ == info.name:
                members.update((f"{name}.{attr}", val)
                               for attr, val in vars(obj).items())
            for qual, member in members.items():
                if callable(getattr(member, "cache_parameters", None)):
                    yield f"{info.name}.{qual}", member


def random_theta_component(rng: random.Random, span: float = 0.45) -> float:
    """Real parameter bounded away from 0 so sign resolution stays clean."""
    while True:
        t = rng.uniform(-span, span)
        if abs(t) > 0.02:
            return t


def random_stokes(rng: random.Random, s_bound: float = 0.8,
                  theta_span: float = 0.45) -> StokesMatrices:
    ti = random_theta_component(rng, theta_span)
    s1 = complex(rng.uniform(-s_bound, s_bound), rng.uniform(-s_bound, s_bound))
    s2 = complex(rng.uniform(-s_bound, s_bound), rng.uniform(-s_bound, s_bound))
    return StokesMatrices(s1, s2, ti)


def random_valid_pair(rng: random.Random, s_bound: float = 0.8,
                      theta_span: float = 0.45) -> MonodromyPair:
    """Random manifold point with bounded Stokes entries.

    theta0 and thetaInf are real; theta1 is read back from the trace of
    the product and may come out complex, which every consumer accepts.
    The bounds keep powers of the product well conditioned (cubes stay
    below about 1e4 in entry size), so residual tolerances near 1e-12
    are meaningful.
    """
    stokes = random_stokes(rng, s_bound, theta_span)
    prod = product_from_stokes(stokes)
    t0 = random_theta_component(rng, theta_span)
    tr0 = 2.0 * math.cos(math.pi * t0)
    while True:
        a = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(c) < 0.3:
            continue
        b = (a * (tr0 - a) - 1.0) / c
        if abs(b) <= 4.0:
            break
    m0 = Mat2C(a, b, c, tr0 - a)
    m1 = prod @ m0.inv()
    t1 = cmath.acos(0.5 * m1.trace()) / cmath.pi
    return MonodromyPair(m0, m1, ThetaTriple(t0, t1, stokes.thetaInf))


def doubly_truncated_pair(theta: ThetaTriple) -> MonodromyPair:
    """The pair with vanishing corner entries on both matrices."""
    w = cmath.exp(-1j * cmath.pi * theta.thetaInf)
    m0 = Mat2C(0.0, -1.0, 1.0, 2.0 * cmath.cos(cmath.pi * theta.theta0))
    m1 = Mat2C(0.0, w, -1.0 / w, 2.0 * cmath.cos(cmath.pi * theta.theta1))
    return MonodromyPair(m0, m1, theta)


def trunc00_y_yprime(theta: ThetaTriple, c0: complex, x: complex, order: int = 8):
    """Series-plus-correction value and derivative of the Trunc00 family."""
    series = formal_series_pv("small0", theta, order)
    big_l = 0.5 * (theta.theta0 - theta.theta1 - theta.thetaInf)
    mu = 2.0 * theta.theta1 + theta.thetaInf - 1.0
    expo = cmath.exp(-x)
    y = series.eval(x) + big_l * c0 * x ** (mu - 1.0) * expo
    yp = series.eval_deriv(x) + big_l * c0 * (
        (mu - 1.0) * x ** (mu - 2.0) - x ** (mu - 1.0)) * expo
    return y, yp


def ray_reference(theta: ThetaTriple, seed: dict, t_end: float):
    """(y, zfrak) at |x| = t_end by scipy's DOP853 (rtol 1e-12).

    An integrator independent of the oracle's Taylor stepper: the ray
    system t Y' = pv_rhs_first_order, packed into six reals.  log u, from
    0, stays in the integrated vector, since the step-size control of
    DOP853 reads every component.
    """
    x0, y0, z0 = _seed_values(seed, complex)
    eiphi = cmath.exp(1j * cmath.phase(x0))

    def rhs(t, v):
        fy, fz, fu = pv_rhs_first_order(theta, eiphi * t, complex(v[0], v[1]),
                                        complex(v[2], v[3]))
        return np.array([fy.real, fy.imag, fz.real, fz.imag,
                         fu.real, fu.imag]) / t

    sol = solve_ivp(rhs, (abs(x0), t_end),
                    [y0.real, y0.imag, z0.real, z0.imag, 0.0, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-13)
    assert sol.success, sol.message
    v = sol.y[:, -1]
    return complex(v[0], v[1]), complex(v[2], v[3])


def ray_final_mp(theta: ThetaTriple, seed: dict, t_end: float,
                 dps: int = 50):
    """(y, zfrak) of the mp ray leg to |x| = t_end, in doubles."""
    with mpmath.workdps(dps):
        phi, start = _ray_start(seed, mpmath.mpc)
        _, y, z = _ray_leg(theta, phi, start, t_end)
        return complex(y), complex(z)


def perturbed_drift(theta: ThetaTriple, seed: dict, t_list, perturb):
    """isomonodromy_drift in doubles with y shifted at one base.

    The negative control of the drift metric.  perturb is (t_value, dy):
    the ray legs are chained as in the oracle, and at |x| = t_value the
    solution value y is shifted by dy before the monodromy solve only, so
    the next leg starts from the unshifted state.  The shifted data leave
    the trajectory, so the drift blows up.
    """
    t_bad, dy = perturb
    phi, start = _ray_start(seed, complex)
    t_sorted = sorted(float(t) for t in t_list)
    states = {}
    for part in ([t for t in reversed(t_sorted) if t <= start[0]],
                 [t for t in t_sorted if t > start[0]]):
        cur = start
        for t in part:
            cur = states[t] = _ray_leg(theta, phi, cur, t)
    raw = []
    for t in t_sorted:
        _, y, z = states[t]
        if abs(t - t_bad) < 1e-12 * max(1.0, t):
            y = y + dy
        raw.append(direct_monodromy(LinearSystemState(t, phi, y, z, theta)))
    worst, pairs = _normalized_drift(raw, _DRIFT_ZERO_TOL)
    return DriftReport(worst, tuple(t_sorted), tuple(pairs))


def fixed_seed_frame(state, lam, N: int):
    """(lam, P(lam), defect) of the order-N canonical frame at a chosen lam.

    No ladder: SeedDefectTooLarge when the defect is above the backend's cap.
    """
    cf = canonical_frame(state, lam, N)
    cap = _backend_of(state.t).defect_cap
    if cf.defect > cap:
        raise SeedDefectTooLarge(
            f"seed defect {cf.defect:.2e} above {float(cap):.0e} at {lam}")
    return lam, cf.poly, cf.defect


def square_loops(phi: float, base: complex, hw: float, hh: float):
    """Two closed polylines from base, one around each singular point.

    Each is the rectangle of half-width hw and half-height hh around
    -e^{i phi} (then +e^{i phi}), entered and left at its top midpoint.
    """
    e = cmath.exp(1j * phi)
    loops = []
    for s in (-e, e):
        top = s + hh * 1j
        loops.append((base, top, s + complex(-hw, hh), s + complex(-hw, -hh),
                      s + complex(hw, -hh), s + complex(hw, hh), top, base))
    return loops[0], loops[1]


def loop_transport_monodromy(state, loops, N: int) -> MonodromyPair:
    """(M0, M1) by literal transport of the canonical frame around two loops.

    The reference for the oracle's Frobenius chain: the order-N frame is
    seeded at the common base point of the loops (fixed_seed_frame) and
    carried around each closed polyline by the oracle's Taylor transport;
    M = Y(base)^-1 Y(base after the loop).  Accurate at moderate t only,
    since the e^{+-t lambda/4} modes separate along the loops.
    """
    lam0, p_seed, _ = fixed_seed_frame(state, loops[0][0], N)
    v0 = _seed_gauge(state, p_seed, lam0)
    y_base_inv = _exp_gauge(state, v0, lam0).inv()
    out = []
    for path in loops:
        _check_clearance(state, path)
        out.append(y_base_inv @ _exp_gauge(state, _transport(state, path, v0),
                                           lam0))
    return MonodromyPair(out[0], out[1], state.theta)


def r2_0_pair() -> MonodromyPair:
    """Second diagonal entry zero, first one the surviving coordinate."""
    t0, t1, ti = 0.3, 0.2, 0.15
    w = cmath.exp(-1j * math.pi * ti)
    m1_12 = 0.7 + 0.1j
    m1 = Mat2C(0.0, m1_12, -1.0 / m1_12, 2.0 * math.cos(math.pi * t1))
    m0_21 = w / m1_12
    a = 0.5 - 0.2j
    m0_22 = 2.0 * math.cos(math.pi * t0) - a
    m0 = Mat2C(a, (a * m0_22 - 1.0) / m0_21, m0_21, m0_22)
    return MonodromyPair(m0, m1, ThetaTriple(t0, t1, ti))


def r2_1_pair() -> MonodromyPair:
    """Mirror of r2_0_pair with the first diagonal entry zeroed."""
    t0, t1, ti = 0.3, 0.2, 0.15
    w = cmath.exp(-1j * math.pi * ti)
    m0_21 = 1.1 - 0.4j
    m0 = Mat2C(0.0, -1.0 / m0_21, m0_21, 2.0 * math.cos(math.pi * t0))
    m1_12 = w / m0_21
    b = 0.8 + 0.3j
    m1_22 = 2.0 * math.cos(math.pi * t1) - b
    m1 = Mat2C(b, m1_12, (b * m1_22 - 1.0) / m1_12, m1_22)
    return MonodromyPair(m0, m1, ThetaTriple(t0, t1, ti))


def max_entry_diff(a: Mat2C, b: Mat2C) -> float:
    return max(abs(a.m11 - b.m11), abs(a.m12 - b.m12),
               abs(a.m21 - b.m21), abs(a.m22 - b.m22))


def pair_diff(p: MonodromyPair, q: MonodromyPair) -> float:
    return max(max_entry_diff(p.m0, q.m0), max_entry_diff(p.m1, q.m1))


def _theta_quads_reference(v: complex, q: complex):
    """theta_1..theta_4 with every power of the nome computed in place.

    z = e^{iv}; the odd series sum q^((n + 1/2)^2) z^(+-(2n + 1)), the even
    ones q^(n^2) (z^(2n) + z^(-2n)), each split by the parity of n. The
    series stop at the first term whose bound on the reduced cell,
    |q|^(n^2 - 1/4) odd and |q|^(n^2 - n) even, is below 1e-16 / 2.
    """
    aq = abs(q)
    z = cmath.exp(1j * v)
    zi = 1.0 / z
    z2 = z * z
    zi2 = zi * zi
    sums = [0j, 0j, 0j, 0j]  # z^(2n+1), z^-(2n+1) for even n, then odd n
    p, m = z, zi
    for n in range(64):
        qn = q ** ((n + 0.5) ** 2)
        sums[2 * (n % 2)] += qn * p
        sums[2 * (n % 2) + 1] += qn * m
        p *= z2
        m *= zi2
        if aq ** (n * n - 0.25) < 0.5e-16:
            break
    even_p, even_m, odd_p, odd_m = sums
    cos_sums = [0j, 0j]  # z^(2n) + z^(-2n) for even n, then odd n
    p, m = z2, zi2
    for n in range(1, 65):
        cos_sums[n % 2] += q ** (n * n) * (p + m)
        p *= z2
        m *= zi2
        if aq ** (n * n - n) < 0.5e-16:
            break
    cos_even, cos_odd = cos_sums
    return (-1j * ((even_p - even_m) - (odd_p - odd_m)),
            even_p + even_m + odd_p + odd_m,
            1.0 + cos_even + cos_odd, 1.0 + cos_even - cos_odd)


def sn_cn_dn_reference(u: complex, k: complex):
    """`sn_cn_dn` with nothing kept between calls, the check on its cache.

    The same theta quotients in the same floating-point order, with K, K',
    the nome, its powers, the lattice data and the theta nulls computed
    afresh at every point, so the cached kernel must agree with it bit for
    bit.
    """
    ksq = k * k
    if abs(ksq) < 1e-8:
        return cmath.sin(u), cmath.cos(u), 1.0 + 0.0j
    if abs(1.0 - ksq) < 1e-8:
        s = cmath.tanh(u)
        c = 1.0 / cmath.cosh(u)
        return s, c, c
    K, Kp = _quarter_periods(k)
    q = cmath.exp(-math.pi * Kp / K)
    if abs(q) >= 0.999:
        raise NoConvergence("nome too close to the unit circle")
    p1, p2 = 4.0 * K, 2j * Kp
    u_red = reduce_mod_lattice(u, p1, p2)
    v = (0.5 * math.pi / K) * u_red
    t1, t2, t3, t4 = _theta_quads_reference(v, q)
    _, z2, z3, z4 = _theta_quads_reference(0.0, q)
    if abs(t4) < 1e-12 * max(abs(t1), 1.0):
        raise NearPole("argument sits on the sn pole lattice")
    sn = (z3 / z2) * (t1 / t4)
    cn = (z4 / z2) * (t2 / t4)
    dn = (z4 / z3) * (t3 / t4)
    if abs(sn) > 1e8:
        raise NearPole("sn overflow guard tripped")
    # an odd multiple of 2iK' taken off u flips the signs of cn and dn
    det = p1.real * p2.imag - p1.imag * p2.real
    if math.floor((p1.real * u.imag - p1.imag * u.real) / det + 0.5) % 2:
        return sn, -cn, -dn
    return sn, cn, dn


def cycle_integral_reference(A: complex, integrand_tag: str, cycle: str,
                             dps: int = 20) -> complex:
    """Plain mpmath quadrature of `cycle_integral`, the check on its closed forms.

    Cycle a is the doubled inner segment, z = sqrt(A) sin(psi), where
    w = sqrt(A) cos(psi) sqrt(1 - A sin^2 psi) and the cos(psi) zeros cancel
    against dz. Cycle b is the counterclockwise confocal ellipse
    z = -m + d cos(t - i rho) around the left cut [-1, -sqrt(A)], kept clear
    of the right cut, with w on the upper sheet built from one factor per
    cut (w ~ -z^2 at infinity).
    """
    with mpmath.workdps(dps):
        A = mpmath.mpc(A)
        if cycle == "a":
            def f(psi):
                num = 1 if integrand_tag == "period" else A * mpmath.cos(psi) ** 2
                return num / mpmath.sqrt(1 - A * mpmath.sin(psi) ** 2)
            half = mpmath.pi / 2
            return complex(2 * mpmath.quad(f, mpmath.linspace(-half, half, 5)))
        s_a = mpmath.sqrt(A)
        if s_a.real < 0:
            s_a = -s_a
        m = (1 + s_a) / 2
        d = (1 - s_a) / 2
        delta = 0.15 * min(abs(1 - s_a), abs(s_a))
        cosh_rho = min(max(1 + delta / abs(d), 1.02),
                       0.98 * (abs(m + s_a) - delta) / abs(d))
        rho = mpmath.acosh(cosh_rho)

        def w_plus(z):
            zr, zl = z - m, z + m
            return -(zr * mpmath.sqrt(1 - (d / zr) ** 2)
                     * zl * mpmath.sqrt(1 - (d / zl) ** 2))

        def g(t):
            arg = mpmath.mpc(t, -rho)
            z = -m + d * mpmath.cos(arg)
            num = 1 if integrand_tag == "period" else A - z * z
            return -num * d * mpmath.sin(arg) / w_plus(z)
        return complex(mpmath.quad(g, mpmath.linspace(0, 2 * mpmath.pi, 9)))


def _laurent_mul(a: dict, b: dict, cap: int) -> dict:
    """Product truncated above x^-cap, each coefficient one exact dot product."""
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb <= cap:
                terms.setdefault(ea + eb, []).append((ca, cb))
    return {e: mpmath.fdot(t) for e, t in terms.items()}


def _laurent_add(*terms) -> dict:
    """Sum of (scale, series) pairs."""
    out = {}
    for scale, f in terms:
        for e, c in f.items():
            out[e] = out.get(e, 0) + scale * c
    return out


def _laurent_shift(f: dict, p: int) -> dict:
    """x^p f."""
    return {e - p: c for e, c in f.items()}


def _laurent_diff(f: dict) -> dict:
    """d/dx: c x^-e -> -e c x^-(e+1)."""
    return {e + 1: -e * c for e, c in f.items() if e}


def _cleared_pv_residual(y: dict, a, b, c, cap: int) -> dict:
    """2 x^2 y (y-1) y'' - x^2 (3y-1) y'^2 + 2 x y (y-1) y'
    - 2 (y-1)^3 (a y^2 - b) - 2 c x y^2 (y-1) + x^2 y^2 (y+1), to x^-cap."""
    add, shift = _laurent_add, _laurent_shift
    mul = lambda f, g: _laurent_mul(f, g, cap)
    one = {0: 1}
    yp = _laurent_diff(y)
    ypp = _laurent_diff(yp)
    yy = mul(y, y)
    yyy = mul(yy, y)
    ym1_cubed = add((1, yyy), (-3, yy), (3, y), (-1, one))
    return add(
        (2, mul(add((1, yy), (-1, y)), add((1, shift(ypp, 2)), (1, shift(yp, 1))))),
        (-1, shift(mul(add((3, y), (-1, one)), mul(yp, yp)), 2)),
        (-2, mul(ym1_cubed, add((a, yy), (-b, one)))),
        (-2 * c, shift(add((1, yyy), (-1, yy)), 1)),
        (1, shift(add((1, yyy), (1, yy)), 2)))


def formal_series_reference(tag: str, theta: ThetaTriple, N: int,
                            dps: int = 40) -> list:
    """Coefficients of `formal_series_pv(tag, theta, N)` at `dps` digits.

    The check on the double recurrence, and independent of its table of
    resolving orders and slopes: each coefficient a_m is solved from two
    residual evaluations, with a_m = 0 and a_m = 1, at the first power of x
    where they differ, where the residual is affine in a_m. The residual is
    expanded with plain truncated Laurent dicts {e: coefficient of x^-e}.
    The leading coefficients come from the leading balance of the equation.
    """
    with mpmath.workdps(dps):
        t0, t1, ti = (mpmath.mpmathify(t) for t in
                      (theta.theta0, theta.theta1, theta.thetaInf))
        a = (t0 - t1 + ti) ** 2 / 8
        b = (t0 - t1 - ti) ** 2 / 8
        c = 1 - t0 - t1
        min_exp, lead = {
            "minus_one": (0, mpmath.mpf(-1)),
            "small0": (1, (t0 - t1 - ti) / 2),
            "small1": (1, -(t0 - t1 - ti) / 2),
            "large0": (-1, 2 / (t1 - t0 - ti)),
            "large1": (-1, 2 / (t0 - t1 + ti)),
        }[tag]
        y = {min_exp: lead}
        # no factor starts before x^-q, so with every product cut at
        # x^-(m + 2 - 2q) the residual (x^2 times up to five factors) is
        # exact up to x^-m, the last power searched
        q = min(min_exp, 0)
        for m in range(min_exp + 1, N + 1):
            cap = m + 2 - 2 * q
            r0 = _cleared_pv_residual({**y, m: mpmath.mpf(0)}, a, b, c, cap)
            r1 = _cleared_pv_residual({**y, m: mpmath.mpf(1)}, a, b, c, cap)
            k = next(k for k in range(min(r1), m + 1)
                     if r1.get(k, 0) != r0.get(k, 0))
            y[m] = -r0.get(k, 0) / (r1[k] - r0.get(k, 0))
        return [complex(y[m]) for m in range(min_exp, N + 1)]
