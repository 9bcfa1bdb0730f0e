"""Independent numerical verification layer.

Integrates the nonlinear first-order system along rays, integrates the
2x2 linear lambda-system to read monodromy matrices directly off the
trajectory data, and measures how far the computed monodromy drifts as
the base point moves (it should not).

The Taylor ray stepper and the monodromy chain on Mat2C (residues,
canonical series and seed ladder, Taylor lambda-transport, local
Frobenius frames carried by their holomorphic part, connection solve with
a conditioning guard) are written once and run in the scalars
of the state they are given: Python complex with cmath, or mpmath numbers
at the working precision for a state built under mp.workdps (the dps
arguments of the entry points do that).  Both use only arithmetic, abs,
exp, log, pi and a dot product of their backend, and convert every
Python float through the backend before they compute with it, so no
double rounding enters the mp arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from operator import mul
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    GridTooCoarse,
    HitSingularity,
    LoopHitsSingularity,
    SeedDefectTooLarge,
    ToleranceFailure,
)
from .mono_core import (
    Mat2C,
    MonodromyPair,
    ThetaTriple,
    gauge_cascade_index,
    gauge_normalize_at,
)


# ---------------------------------------------------------------------------
# scalar backends of the monodromy chain

@dataclass(frozen=True)
class _Backend:
    """Scalar context of the chain and the constants of its precision.

    The seed ladder starts at |lambda| = max(rho, _SEED_RUNG / t): 5 and
    order 32 in doubles, 16 and order 44 in mp.
    """

    num: Callable[[Any], Any]   # a Python number as a scalar of the backend
    exp: Callable[[Any], Any]
    log: Callable[[Any], Any]
    dot: Callable[[Sequence, Sequence], Any]   # sum of a[j] b[j]
    pi: Any
    rho: float          # least |lambda| of the first rung of the seed ladder
    N: int              # order of the large-lambda series of the seed frame
    defect_cap: Any     # seed defect the ladder accepts
    tol: Any            # relative tail of a Taylor step or a local series
    det_tol: Any        # relative determinant drift allowed in transport
    ray_order: int      # Taylor terms of one step of the nonlinear ray
    ray_tol: Any        # relative tail of one such step


_DOUBLE = _Backend(lambda v: v, cmath.exp, cmath.log,
                   lambda a, b: sum(map(mul, a, b)), cmath.pi, rho=5.0,
                   N=32, defect_cap=1e-8, tol=1e-16, det_tol=1e-9,
                   ray_order=24, ray_tol=1e-16)


# least working precision of the mp backend: its tail 10^-(dps - 16) keeps
# about dps - 16 digits, so below 30 its drift reads worse than in doubles
MIN_DPS = 30


def _mp_backend() -> _Backend:
    import mpmath as mp
    dps = mp.mp.dps
    if dps < MIN_DPS:
        raise ValueError(f"dps must be at least {MIN_DPS}, got {dps}")
    ten = mp.mpf(10)
    return _Backend(mp.mpmathify, mp.exp, mp.log, mp.fdot, mp.pi, rho=16.0,
                    N=44,
                    defect_cap=ten ** -max(18, dps - 28),
                    tol=ten ** -(dps - 16), det_tol=ten ** -(dps - 24),
                    ray_order=56, ray_tol=ten ** -(dps - 8))


def _backend_of(x) -> _Backend:
    """Backend whose scalars x is made of; Python numbers are doubles."""
    return _DOUBLE if isinstance(x, (int, float, complex)) else _mp_backend()


def _thetas(theta: ThetaTriple, bk: _Backend) -> Tuple[Any, Any, Any]:
    return bk.num(theta.theta0), bk.num(theta.theta1), bk.num(theta.thetaInf)


# ---------------------------------------------------------------------------
# coefficient data of the linear system

def residue_matrices(theta: ThetaTriple, y: complex,
                     zfrak: complex) -> Tuple[Mat2C, Mat2C]:
    """Residues at lambda = -e^{i phi} (theta0) and +e^{i phi} (theta1)."""
    t0, t1, ti = _thetas(theta, _backend_of(zfrak))
    z = zfrak
    b0 = Mat2C(z + t0 / 2, -z - t0, z, -z - t0 / 2)
    b1 = Mat2C(-z - (t0 + ti) / 2, y * (z + (t0 - t1 + ti) / 2),
               -(z + (t0 + t1 + ti) / 2) / y, z + (t0 + ti) / 2)
    return b0, b1


@dataclass(frozen=True)
class LinearSystemState:
    """Solution data at one point of a ray, enough to assemble the system.

    t, y and zfrak are Python numbers, or mpf / mpc for the mp chain.
    """

    t: float
    phi: float
    y: complex
    zfrak: complex
    theta: ThetaTriple

    def coefficient_matrix(self, lam: complex) -> Mat2C:
        b0, b1 = residue_matrices(self.theta, self.y, self.zfrak)
        e = _unit(self)
        q = self.t / 4
        return Mat2C(q, 0.0, 0.0, -q).add(b0.scale(1 / (lam + e))) \
            .add(b1.scale(1 / (lam - e)))


def _unit(state: LinearSystemState):
    """e^{i phi} in the scalars of the state."""
    bk = _backend_of(state.t)
    return bk.exp(1j * bk.num(state.phi))


@dataclass(frozen=True)
class ODETrajectory:
    samples: Tuple[Tuple[complex, complex, complex], ...]


# ---------------------------------------------------------------------------
# nonlinear ray integration

def pv_rhs_first_order(theta: ThetaTriple, x: complex, y: complex,
                       zfrak: complex) -> Tuple[complex, complex, complex]:
    """x-scaled right sides (x y', x zfrak', x (ln u)') of the ray system."""
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    a = 0.5 * (t0 - t1 + ti)
    bq = 0.5 * (3 * t0 + t1 + ti)
    c = 0.5 * (t0 + t1 + ti)
    z = zfrak
    fy = x * y - 2 * z * (y - 1) ** 2 - (y - 1) * (a * y - bq)
    fz = y * z * (z + a) - (z + t0) * (z + c) / y
    fu = -2 * z - t0 + y * (z + a) + (z + c) / y
    return fy, fz, fu


def zfrak_from_y_yprime(theta: ThetaTriple, x: complex, y: complex,
                        yprime: complex) -> complex:
    """Auxiliary variable from (y, y'), inverting the first ray equation.

    Runs in the scalars of y (Python complex, or mpc for the mp chain).
    """
    t0, t1, ti = _thetas(theta, _backend_of(y))
    return -x * (yprime - y) / (2 * (y - 1) ** 2) \
        + (t0 + t1) / (2 * (y - 1)) - (t0 - t1 + ti) / 4


def _seed_values(seed: Dict[str, complex],
                 num: Callable) -> Tuple[Any, Any, Any]:
    """(x, y, zfrak) of a seed, each entry passed through num as given, so
    an mpc entry keeps its digits."""
    if "zfrak" not in seed:
        raise ValueError("seed needs zfrak")
    return tuple(num(seed[k]) for k in ("x", "y", "zfrak"))


_RAY_GUARD = 1e-6       # a ray leg stops when y comes this close to 0 or 1
_RAY_STEPS = 500        # Taylor steps of one ray leg before it gives up
_RAY_COLLAPSE = 1e-6    # a shorter step, relative to max(1, t), is a failure


def _ray_start(seed: Dict[str, complex],
               num: Callable) -> Tuple[float, Tuple[Any, Any, Any]]:
    """(phi, (|x|, y, zfrak)) of a seed, y and zfrak passed through num.

    |x| is taken in the scalars the seed gives x in, so a seed in doubles
    starts from the same double t on either chain. Rejects a seed at x = 0
    and one whose y already lies in the guard band.
    """
    x = seed["x"]
    if x == 0:
        raise ValueError("seed must sit at nonzero x")
    _, y, z = _seed_values(seed, num)
    if min(abs(y), abs(y - 1)) < _RAY_GUARD:
        raise HitSingularity(
            f"seed y={complex(y)} already inside the guard band")
    return cmath.phase(complex(x)), (abs(x), y, z)


def _ray_coeffs(theta: ThetaTriple, phi: float, t0, y0,
                z0) -> Tuple[List, List, List]:
    """Taylor coefficients in u = t - t0 of (y, zfrak, log u) along the ray.

    They run in the scalars of y0, up to the backend's ray order.  log u, a
    gauge variable, is carried from 0 only for the step rule of _ray_leg:
    its terms past the first do not depend on log u itself.  The ray
    system reads t Y' = F(t, Y) with F = pv_rhs_first_order, so
    t0 (k+1) Y_{k+1} = F_k - k Y_k.  With w = y - 1, p = y (z + a) and
    q = (z + c)/y it is F_y = e t y - (2z + a) w^2 - (a - bq) w,
    F_z = z p - (z + theta0) q and F_u = p + q - 2z - theta0, so each
    order takes seven Cauchy products: w^2, (2z + a) w^2, 1/y, p, z p, q
    and (z + theta0) q (the automatic-differentiation Taylor method of
    Jorba & Zou, Exp. Math. 14 (2005)).
    """
    bk = _backend_of(y0)
    th0, th1, thi = _thetas(theta, bk)
    e, dot = bk.exp(1j * bk.num(phi)), bk.dot
    a, c = (th0 - th1 + thi) / 2, (th0 + th1 + thi) / 2
    amb = a - (3 * th0 + th1 + thi) / 2
    ys, zs, lus = [y0], [z0], [0]
    w, ww, r, p, q = [y0 - 1], [], [1 / y0], [], []
    for k in range(bk.ray_order):
        zrev = zs[::-1]
        if k:
            w.append(ys[k])
            r.append(-dot(ys[1:], r[::-1]) * r[0])
        ww.append(dot(w, w[::-1]))
        p.append(dot(zrev, ys) + a * ys[k])
        q.append(dot(zrev, r) + c * r[k])
        fy = e * (t0 * ys[k] + (ys[k - 1] if k else 0)) \
            - 2 * dot(zrev, ww) - a * ww[k] - amb * w[k]
        fz = dot(zrev, p) - dot(zrev, q) - th0 * q[k]
        fu = p[k] + q[k] - 2 * zs[k] - (th0 if k == 0 else 0)
        den = t0 * (k + 1)
        ys.append((fy - k * ys[k]) / den)
        zs.append((fz - k * zs[k]) / den)
        lus.append((fu - k * lus[k]) / den)
    return ys, zs, lus


def _horner(coeffs: Sequence, h):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * h + c
    return acc


def _ray_leg(theta: ThetaTriple, phi: float, state: Tuple,
             t_end: float) -> Tuple:
    """Carry state = (t, y, zfrak) along the ray to |x| = t_end.

    Taylor steps (_ray_coeffs) in the scalars of y, of the backend's ray
    order.  A step passes when its last four terms fall below the
    backend's ray_tol relative to max(1, |y|, |zfrak|); it starts at 0.999
    times the least reach (cut / |term j|)^(1/j) of those four (the
    Jorba-Zou guess), at most 0.45 t, and is halved while it fails, which
    the 0.999 keeps rounding from causing.  ToleranceFailure when a step
    collapses below _RAY_COLLAPSE max(1, t), which only a pole on or right
    next to the ray forces, or the leg takes more than _RAY_STEPS steps;
    HitSingularity when y comes within _RAY_GUARD of 0 or 1 after a step.
    """
    t, y, z = state
    bk = _backend_of(y)
    order = bk.ray_order
    tail_terms = range(order - 3, order + 1)
    tc, target = bk.num(t), bk.num(t_end)
    steps = 0
    while tc != target:
        ys, zs, lus = _ray_coeffs(theta, phi, tc, y, z)
        size = {j: abs(ys[j]) + abs(zs[j]) + abs(lus[j]) for j in tail_terms}
        cut = bk.ray_tol * max(1, abs(y), abs(z))
        reach = 0.45 * tc
        for j in tail_terms:
            if size[j]:
                reach = min(reach, 0.999 * (cut / size[j]) ** (1.0 / j))
        rem = target - tc
        h = rem if abs(rem) <= reach else (reach if rem > 0 else -reach)
        floor = _RAY_COLLAPSE * max(1, tc)
        while True:
            if abs(h) < floor and h != rem:
                raise ToleranceFailure(
                    "ray Taylor step collapsed; solution pole nearby?")
            if max(size[j] * abs(h) ** j for j in tail_terms) <= cut:
                break
            h = h / 2
        y, z = _horner(ys, h), _horner(zs, h)
        tc = target if h == rem else tc + h
        if min(abs(y), abs(y - 1)) < _RAY_GUARD:
            raise HitSingularity(f"y reached a guard band near t={float(tc)}")
        steps += 1
        if steps > _RAY_STEPS:
            raise ToleranceFailure("ray Taylor stepping did not converge")
    return t_end, y, z


def integrate_pv(theta: ThetaTriple, seed: Dict[str, complex], t_end: float,
                 n_samples: int = 33) -> ODETrajectory:
    """Integrate the ray system from the seed's |x| to t_end (either way).

    seed as read by _seed_values.  Taylor steps (_ray_leg) carry the state
    leg by leg through n_samples evenly spaced |x| from the seed to t_end,
    in doubles.  Raises HitSingularity when y comes within _RAY_GUARD of 0
    or 1.
    """
    phi, state = _ray_start(seed, complex)
    t_start = state[0]
    eiphi = cmath.exp(1j * phi)
    if abs(t_end - t_start) < 1e-15 * max(1.0, t_start):
        return ODETrajectory(((eiphi * t_start,) + state[1:],))
    n = max(2, n_samples)
    samples = []
    for k in range(n):
        t = t_end if k == n - 1 else t_start + (t_end - t_start) * k / (n - 1)
        state = _ray_leg(theta, phi, state, t)
        samples.append((eiphi * t,) + state[1:])
    return ODETrajectory(tuple(samples))


def pv_residual(xs: Sequence[complex], ys: Sequence[complex],
                theta: ThetaTriple) -> float:
    """Max finite-difference defect of the scalar second-order equation.

    xs must be a uniform grid along a line; needs at least 5 points for
    the interior central stencils.
    """
    xs = [complex(x) for x in xs]
    ys = [complex(v) for v in ys]
    if len(xs) < 5:
        raise GridTooCoarse("need at least 5 grid points")
    h = xs[1] - xs[0]
    for i in range(1, len(xs)):
        if abs((xs[i] - xs[i - 1]) - h) > 1e-9 * max(1.0, abs(h)):
            raise GridTooCoarse("grid is not uniform")
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    a = theta.a_theta
    b = theta.b_theta
    c = theta.c_theta
    worst = 0.0
    for i in range(2, len(xs) - 2):
        x, y = xs[i], ys[i]
        yp = (-ys[i + 2] + 8 * ys[i + 1] - 8 * ys[i - 1] + ys[i - 2]) / (12 * h)
        ypp = (-ys[i + 2] + 16 * ys[i + 1] - 30 * y + 16 * ys[i - 1]
               - ys[i - 2]) / (12 * h * h)
        rhs = (0.5 / y + 1.0 / (y - 1.0)) * yp * yp - yp / x \
            + ((y - 1.0) ** 2 / x ** 2) * (a * y - b / y) + c * y / x \
            - y * (y + 1.0) / (2.0 * (y - 1.0))
        worst = max(worst, abs(ypp - rhs))
    return worst


# ---------------------------------------------------------------------------
# canonical frame at large lambda

_RHO_MAX = 2000.0       # top of the seed ladder
_SEED_RUNG = 80.0       # t times the least |lambda| of its first rung
_MATCH_HEIGHT = 0.3     # the matching point sits at i * _MATCH_HEIGHT
_STEP_REACH = 24.0      # t times the longest Taylor step h in lambda
_DICHOTOMY = 6.0        # t times the largest |Re h| of such a step
_TAYLOR_CAP = 170       # terms of one Taylor step before it is halved
_FROBENIUS_REACH = 4.0  # t times the largest |w| a local series is summed at
_SERIES_CAP = 700       # terms of one local series


@dataclass(frozen=True)
class CanonicalFrame:
    frame: Mat2C
    defect: float
    poly: Mat2C     # the polynomial part P(lambda) = frame e^{-g sigma3}


def _times_sigma3(m: Mat2C) -> Mat2C:
    return Mat2C(m.m11, -m.m12, m.m21, -m.m22)


def _scale_columns(m: Mat2C, a, b) -> Mat2C:
    """m @ diag(a, b)."""
    return Mat2C(m.m11 * a, m.m12 * b, m.m21 * a, m.m22 * b)


def _exp_gauge(state: LinearSystemState, m: Mat2C, lam) -> Mat2C:
    """m e^{(t/4) lam sigma3}."""
    bk = _backend_of(state.t)
    f = bk.exp(state.t * lam / 4)
    return _scale_columns(m, f, 1 / f)


def _seed_gauge(state: LinearSystemState, p: Mat2C, lam0) -> Mat2C:
    """P(lam0) lam0^{-(thetaInf/2) sigma3}: V of _transport at the seed.

    The canonical frame is P e^{g sigma3}, g = t lam/4 - (thetaInf/2) log
    lam with the principal log at lam0, so V = Y e^{-(t/4) lam sigma3}
    starts from P scaled by lam0^{-+thetaInf/2}.
    """
    bk = _backend_of(state.t)
    f = bk.exp(bk.num(state.theta.thetaInf) / 2 * bk.log(lam0))
    return _scale_columns(p, 1 / f, f)


def _series_coefficients(state: LinearSystemState, N: int) -> List[Mat2C]:
    """Y_1..Y_N of the large-lambda expansion, diagonal parts included.

    Matching powers after substituting (I + sum Y_m L^-m) e^{g sigma3} into
    the system gives K_m = (m-1) Y_{m-1} + (thetaInf/2) Y_{m-1} sigma3
    + C_1 Y_{m-1} + R_m, with C_j = b0 (-e)^{j-1} + b1 e^{j-1} and
    R_m = sum_{j=2..m} C_j Y_{m-j} = b0 S-_m + b1 S+_m.  The sums obey
    S+-_m = +-e (Y_{m-2} + S+-_{m-1}) from S+-_1 = 0, so each order takes
    two matrix products, in scalars as _taylor_step does.  The off-diagonal
    of Y_m comes from the off-diagonal of K_m, the diagonal of Y_{m-1} from
    requiring the diagonal of K_m to vanish.  That diagonal is linear in
    diag(Y_{m-1}) with slope exactly m-1 (never zero): the +-thetaInf/2 of
    the sigma3 term cancels against diag(C_1) = diag(b0 + b1) =
    (-thetaInf/2, +thetaInf/2), so it is solved directly and checked
    afterwards.
    """
    t = state.t
    half_ti = _backend_of(t).num(state.theta.thetaInf) / 2
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    e = _unit(state)
    a11, a12, a21, a22 = b0.m11, b0.m12, b0.m21, b0.m22
    b11, b12, b21, b22 = b1.m11, b1.m12, b1.m21, b1.m22
    c11, c12, c21, c22 = a11 + b11, a12 + b12, a21 + b21, a22 + b22  # C_1
    y11, y12, y21, y22 = 1.0, 0.0, 0.0, 1.0  # Y_{m-1}, from Y_0 = I
    z11 = z12 = z21 = z22 = 0.0              # Y_{m-2}, from Y_{-1} = 0
    n11 = n12 = n21 = n22 = 0.0              # S-
    p11 = p12 = p21 = p22 = 0.0              # S+
    ys = []
    for m in range(1, N + 2):
        n11, n12 = -e * (z11 + n11), -e * (z12 + n12)
        n21, n22 = -e * (z21 + n21), -e * (z22 + n22)
        p11, p12 = e * (z11 + p11), e * (z12 + p12)
        p21, p22 = e * (z21 + p21), e * (z22 + p22)
        r11 = a11 * n11 + a12 * n21 + b11 * p11 + b12 * p21
        r12 = a11 * n12 + a12 * n22 + b11 * p12 + b12 * p22
        r21 = a21 * n11 + a22 * n21 + b21 * p11 + b22 * p21
        r22 = a21 * n12 + a22 * n22 + b21 * p12 + b22 * p22
        if m >= 2:  # diag(Y_{m-1}) from diag(K_m) = 0
            y11 = -(r11 + c12 * y21) / (m - 1)
            y22 = -(r22 + c21 * y12) / (m - 1)
            ys.append(Mat2C(y11, y12, y21, y22))
        k11 = r11 + (m - 1) * y11 + half_ti * y11 + (c11 * y11 + c12 * y21)
        k12 = r12 + (m - 1) * y12 - half_ti * y12 + (c11 * y12 + c12 * y22)
        k21 = r21 + (m - 1) * y21 + half_ti * y21 + (c21 * y11 + c22 * y21)
        k22 = r22 + (m - 1) * y22 - half_ti * y22 + (c21 * y12 + c22 * y22)
        if m >= 2 and max(abs(k11), abs(k22)) > 1e-8 * (
                1 + max(abs(k11), abs(k12), abs(k21), abs(k22))):
            raise ToleranceFailure(f"diagonal matching failed at order {m}")
        z11, z12, z21, z22 = y11, y12, y21, y22
        y11, y12, y21, y22 = 0.0, -2 * k12 / t, 2 * k21 / t, 0.0
    return ys


def _poly_part(coeffs: Sequence[Mat2C], lam) -> Tuple[Mat2C, Mat2C]:
    """P(lam) = I + sum Y_m lam^-m and its lambda-derivative.

    Horner's rule in li = 1/lam on scalars: P = I + li (Y_1 + li (Y_2 +
    ...)) and P' = -li^2 (Y_1 + li (2 Y_2 + li (3 Y_3 + ...))).
    """
    li = 1 / lam
    p11 = p12 = p21 = p22 = d11 = d12 = d21 = d22 = 0
    for m in range(len(coeffs), 0, -1):
        ym = coeffs[m - 1]
        p11, p12 = ym.m11 + li * p11, ym.m12 + li * p12
        p21, p22 = ym.m21 + li * p21, ym.m22 + li * p22
        d11, d12 = m * ym.m11 + li * d11, m * ym.m12 + li * d12
        d21, d22 = m * ym.m21 + li * d21, m * ym.m22 + li * d22
    dl = -li * li
    return (Mat2C(1 + li * p11, li * p12, li * p21, 1 + li * p22),
            Mat2C(dl * d11, dl * d12, dl * d21, dl * d22))


def canonical_frame(state: LinearSystemState, lam: complex,
                    N: int = 3) -> CanonicalFrame:
    """Truncated canonical solution near lambda = infinity, with its defect.

    The defect is measured on the polynomial part P (bounded entries), so
    it is meaningful even where the exponential factor is enormous.
    """
    bk = _backend_of(state.t)
    coeffs = _series_coefficients(state, N) if N >= 1 else []
    p, pprime = _poly_part(coeffs, lam)
    gprime = state.t / 4 - bk.num(state.theta.thetaInf) / (2 * lam)
    defect = pprime.add(_times_sigma3(p).scale(gprime)) \
        .sub(state.coefficient_matrix(lam) @ p).norm_inf()
    g = (state.t * lam - 2 * bk.num(state.theta.thetaInf) * bk.log(lam)) / 4
    return CanonicalFrame(_scale_columns(p, bk.exp(g), bk.exp(-g)),
                          float(defect), p)


def _seed_frame(state: LinearSystemState, N: int) -> Tuple[Any, Mat2C, float]:
    """Base point on the upper imaginary axis with an acceptable defect.

    Returns (lambda0, P(lambda0), defect).  The ladder starts at |lambda|
    = max(rho, _SEED_RUNG / t), rho being the backend's (5 in doubles, 16
    in mp), and climbs by factors of 1.5 until the order-N frame meets the
    backend's defect cap.  The order-N series there is accurate to about
    e^{-t|lambda|/2} from its divergent part and to about |lambda|^{-N}
    from the singular points at +-e^{i phi}, so at the backend's order N
    (32 in doubles, 44 in mp) the first rung passes for every t and the
    transport down to the matching point stays short.  A smaller N starts
    at the same rung and may climb.
    """
    bk = _backend_of(state.t)
    rho = max(bk.rho, _SEED_RUNG / float(state.t))
    while True:
        lam = bk.num(1j * rho)
        cf = canonical_frame(state, lam, N)
        if cf.defect <= bk.defect_cap:
            return lam, cf.poly, cf.defect
        rho *= 1.5
        if rho > _RHO_MAX:
            raise SeedDefectTooLarge(
                f"seed defect {cf.defect:.2e} above "
                f"{float(bk.defect_cap):.0e} even at |base| = {rho / 1.5:.0f}")


# ---------------------------------------------------------------------------
# linear transport

def _transport(state: LinearSystemState, path: Sequence[complex],
               v: Mat2C, d0=0, d1=0) -> Mat2C:
    """Carry the gauged frame V = Y e^{-(t/4) lambda sigma3} along a polyline.

    V' = (t/4)(sigma3 V - V sigma3) + B0 V/(lam+e) + B1 V/(lam-e) keeps
    entries of moderate size where Re(lambda) stays small, and is singular
    only at +-e^{i phi}.  With d0, d1 it carries V (lam+e)^{-d0 sigma3}
    (lam-e)^{-d1 sigma3} instead, whose system has B0 - d0 I and B1 - d1 I
    in column 1 and B0 + d0 I, B1 + d1 I in column 2 (_local_frame strips
    its w^D that way).  Taylor steps h go from path[0] through the other
    points: |h| at most _STEP_REACH/t and half the distance to +-e^{i phi},
    and |Re h| at most _DICHOTOMY/t, since the e^{+-t lambda/4} modes
    change their ratio by e^{t |Re h|/2} over a step, which sets the digits
    it can lose.  A step is halved until the last three terms of each
    column fall below tol times that column.
    """
    bk = _backend_of(state.t)
    e = _unit(state)
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    coef = (state.t / 2, e, b0, b1, d0, d1, bk.tol)
    t = max(state.t, 1)
    hmax = _STEP_REACH / t
    pos = path[0]
    for target in path[1:]:
        while pos != target:
            rem = target - pos
            arem = abs(rem)
            reach = min(hmax, min(abs(pos - e), abs(pos + e)) / 2)
            if t * abs(rem.real) * reach > _DICHOTOMY * arem:
                reach = _DICHOTOMY * arem / (t * abs(rem.real))
            h = rem if arem <= reach else rem * (reach / arem)
            while True:
                stepped = _taylor_step(coef, pos, v, h)
                if stepped is not None:
                    break
                h = h / 2
                if abs(h) < 1e-6:
                    raise ToleranceFailure("lambda transport step collapsed")
            v = stepped
            pos = target if h == rem else pos + h
    return v


def _taylor_step(coef: tuple, pos, v: Mat2C, h) -> Optional[Mat2C]:
    """V(pos + h) from the Taylor series at pos; None to retry shorter.

    The terms are carried as V_k h^k.  The Cauchy products of V with
    1/(lam+e) and 1/(lam-e), as P_k h^(k+1), are the first-order
    recurrences P_k = c (V_k - P_{k-1}) with c = h/(pos+e) and h/(pos-e).
    Column 1 sees the diagonals of B0 and B1 lowered by d0 and d1, column 2
    raised by them (see _transport).
    """
    t_half, e, b0, b1, d0, d1, tol = coef
    c0, c1 = h / (pos + e), h / (pos - e)
    th = t_half * h
    a12, a21, b12, b21 = b0.m12, b0.m21, b1.m12, b1.m21
    a11, a22, b11, b22 = b0.m11 - d0, b0.m22 - d0, b1.m11 - d1, b1.m22 - d1
    f11, f22, g11, g22 = b0.m11 + d0, b0.m22 + d0, b1.m11 + d1, b1.m22 + d1
    v11, v12, v21, v22 = v.m11, v.m12, v.m21, v.m22
    s11, s12, s21, s22 = v11, v12, v21, v22
    cut0 = tol * max(abs(v11), abs(v21))
    cut1 = tol * max(abs(v12), abs(v22))
    p11 = p12 = p21 = p22 = q11 = q12 = q21 = q22 = 0
    kmin = int(float(t_half * abs(h))) + 8
    quiet = 0
    for k in range(1, _TAYLOR_CAP + 1):
        p11, p12 = c0 * (v11 - p11), c0 * (v12 - p12)
        p21, p22 = c0 * (v21 - p21), c0 * (v22 - p22)
        q11, q12 = c1 * (v11 - q11), c1 * (v12 - q12)
        q21, q22 = c1 * (v21 - q21), c1 * (v22 - q22)
        v11, v12, v21, v22 = (
            (a11 * p11 + a12 * p21 + b11 * q11 + b12 * q21) / k,
            (th * v12 + f11 * p12 + a12 * p22 + g11 * q12 + b12 * q22) / k,
            (-th * v21 + a21 * p11 + a22 * p21 + b21 * q11 + b22 * q21) / k,
            (a21 * p12 + f22 * p22 + b21 * q12 + g22 * q22) / k)
        s11, s12 = s11 + v11, s12 + v12
        s21, s22 = s21 + v21, s22 + v22
        if k < kmin - 2:
            continue  # a return needs three quiet terms ending at k >= kmin
        if abs(v11) < cut0 and abs(v21) < cut0 \
                and abs(v12) < cut1 and abs(v22) < cut1:
            quiet += 1
            if quiet >= 3 and k >= kmin:
                return Mat2C(s11, s12, s21, s22)
        else:
            quiet = 0
    return None


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    s = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    s = min(1.0, max(0.0, s))
    return abs(p - (a + ab * s))


def _check_clearance(state: LinearSystemState, path: Sequence[complex]) -> None:
    """LoopHitsSingularity if a segment passes within 0.3 of +-e^{i phi}."""
    e = cmath.exp(1j * state.phi)
    for a, b in zip(path, path[1:]):
        for sing in (-e, e):
            d = _point_segment_distance(sing, complex(a), complex(b))
            if d < 0.3:
                raise LoopHitsSingularity(
                    f"path segment passes within {d:.3f} of {sing}")


# ---------------------------------------------------------------------------
# local Frobenius frames at the two finite singular points

def _local_frame(state: LinearSystemState, which: int,
                 lam_match: complex) -> Tuple[Mat2C, Any]:
    """Fundamental local solution Phi = G(w) w^D at lam_match, w = lam - s.

    which = 0 for the point s carrying theta0 (-e^{i phi}), 1 for theta1,
    and D = diag(theta/2, -theta/2).  Returns (Phi(lam_match),
    theta_local).  The terms of G = sum G_k w^k grow like e^{t|w|/4}
    before they cancel, so the series is summed toward lam_match at |w| =
    min(|lam_match - s|, _FROBENIUS_REACH/t), where no term is large.  The
    transport carries W = G e^{-(t/4) lambda sigma3}, regular at s, the
    rest of the way (_transport with d = theta/2 at s), and w_match^D goes
    on at the end: w has the argument of w_match, so the principal log is
    the branch of the series.  Resonant integer theta makes the order-k
    operator singular and is reported, not patched.
    """
    bk = _backend_of(state.t)
    t0, t1, ti = _thetas(state.theta, bk)
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    e = _unit(state)
    z = state.zfrak
    if which == 0:
        r_self, r_other, s_self, s_other, th = b0, b1, -e, e, t0
        g0 = Mat2C(z + t0, 1.0, z, 1.0)
    else:
        r_self, r_other, s_self, s_other, th = b1, b0, e, -e, t1
        g0 = Mat2C(state.y * (z + (t0 - t1 + ti) / 2), state.y,
                   z + (t0 + t1 + ti) / 2, 1.0)
    if abs(g0.det()) < 1e-12 * max(1.0, g0.norm_inf() ** 2):
        raise ToleranceFailure(
            "residue eigenbasis is degenerate (apparent-singularity data?)")

    w_match = lam_match - s_self
    w = w_match * (min(abs(w_match), _FROBENIUS_REACH / state.t)
                   / abs(w_match))
    inv_dist = 1 / (s_self - s_other)
    quarter_t = state.t / 4
    d0, d1 = th / 2, -th / 2
    o11, o12, o21, o22 = r_other.m11, r_other.m12, r_other.m21, r_other.m22
    s11, s12, s21, s22 = r_self.m11, r_self.m12, r_self.m21, r_self.m22
    g11, g12, g21, g22 = g0.m11, g0.m12, g0.m21, g0.m22
    acc11, acc12, acc21, acc22 = g11, g12, g21, g22
    u11 = u12 = u21 = u22 = 0.0
    wk = 1
    quiet = 0
    for k in range(1, _SERIES_CAP + 1):
        # U_k = (G_{k-1} - U_{k-1})/(s - s_other) is the expansion of
        # 1/(lam - s_other) convolved with G; H = (t/4) sigma3 G + R_other U
        u11, u12 = (g11 - u11) * inv_dist, (g12 - u12) * inv_dist
        u21, u22 = (g21 - u21) * inv_dist, (g22 - u22) * inv_dist
        h11 = quarter_t * g11 + (o11 * u11 + o12 * u21)
        h12 = quarter_t * g12 + (o11 * u12 + o12 * u22)
        h21 = -quarter_t * g21 + (o21 * u11 + o22 * u21)
        h22 = -quarter_t * g22 + (o21 * u12 + o22 * u22)
        # G_k solves k G + G D - R_self G = H, D = diag(th/2, -th/2), by
        # columns
        m11, m22 = k + d0 - s11, k + d0 - s22
        det0 = m11 * m22 - s12 * s21
        n11, n22 = k + d1 - s11, k + d1 - s22
        det1 = n11 * n22 - s12 * s21
        if abs(det0) < 1e-20 * k * k or abs(det1) < 1e-20 * k * k:
            raise ToleranceFailure(
                f"resonant local exponents at order {k} (integer theta?)")
        g11 = (m22 * h11 + s12 * h21) / det0
        g21 = (s21 * h11 + m11 * h21) / det0
        g12 = (n22 * h12 + s12 * h22) / det1
        g22 = (s21 * h12 + n11 * h22) / det1
        wk = wk * w
        acc11, acc12 = acc11 + g11 * wk, acc12 + g12 * wk
        acc21, acc22 = acc21 + g21 * wk, acc22 + g22 * wk
        if max(abs(g11), abs(g12), abs(g21), abs(g22)) * abs(wk) < bk.tol \
                * max(1, abs(acc11), abs(acc12), abs(acc21), abs(acc22)):
            quiet += 1
            if quiet >= 3 and k > 8:
                break
        else:
            quiet = 0
    else:
        raise ToleranceFailure(
            f"local series tail still large at {_SERIES_CAP} terms")
    lam_s = s_self + w
    w_s = _exp_gauge(state, Mat2C(acc11, acc12, acc21, acc22), -lam_s)
    d = (th / 2, 0) if which == 0 else (0, th / 2)
    v = _transport(state, (lam_s, lam_match), w_s, *d)
    logw = bk.log(w_match)
    return _scale_columns(_exp_gauge(state, v, lam_match),
                          bk.exp(th / 2 * logw), bk.exp(-th / 2 * logw)), th


# ---------------------------------------------------------------------------
# direct monodromy

def _match_frame(state: LinearSystemState, lam0, p_seed: Mat2C) -> Mat2C:
    """Canonical frame Y at i*_MATCH_HEIGHT, seeded at lam0 with part p_seed.

    Transports V down the imaginary axis and checks its determinant, which
    the traceless residues keep constant.
    """
    bk = _backend_of(state.t)
    lam_m = bk.num(1j * _MATCH_HEIGHT)
    path = (lam0, lam_m)
    _check_clearance(state, path)
    v = _transport(state, path, _seed_gauge(state, p_seed, lam0))
    det_p = p_seed.det()
    det_drift = abs(v.det() - det_p) / max(1, abs(det_p))
    if det_drift > bk.det_tol:
        raise ToleranceFailure(
            f"transport det drift {float(det_drift):.2e} exceeds "
            f"{float(bk.det_tol):.0e}")
    return _exp_gauge(state, v, lam_m)


def _frobenius_monodromy(state: LinearSystemState, lam0: complex,
                         p_seed: Mat2C) -> Tuple[Mat2C, Mat2C]:
    """(M0, M1) from the canonical frame seeded at lam0 with part p_seed.

    Connects the frame at the matching point (_match_frame) to the local
    Frobenius frames of both singular points: C = Phi_loc^{-1} Y and
    M = C^{-1} e^{i pi theta sigma3} C.  ToleranceFailure when Phi_loc is
    singular or |det C| / |C|_max^2, about 1/cond(C), is at most tol^{3/2}
    (1e-24 in doubles): it reads 1.9e-18 at the Trunc00 state of criterion
    08, whose exponentially small mode is genuine, and 2e-30 where the
    local frames lost every digit.
    """
    bk = _backend_of(state.t)
    y_m = _match_frame(state, lam0, p_seed)
    out = []
    for which in (0, 1):
        phi_loc, th = _local_frame(state, which, bk.num(1j * _MATCH_HEIGHT))
        c = _inverse(phi_loc, "local frame") @ y_m
        if abs(c.det()) <= bk.tol ** 1.5 * c.norm_inf() ** 2:
            raise ToleranceFailure(
                f"connection matrix is ill-conditioned (|det C| = "
                f"{float(abs(c.det())):.1e}, |C|_max = "
                f"{float(c.norm_inf()):.1e})")
        turn = bk.exp(1j * bk.pi * th)
        ci = _inverse(c, "connection matrix")
        out.append(ci @ Mat2C(turn, 0.0, 0.0, 1 / turn) @ c)
    return out[0], out[1]


def _inverse(m: Mat2C, what: str) -> Mat2C:
    """m^-1; ToleranceFailure when det m is zero or not finite."""
    d = m.det()
    # d - d is zero exactly for finite d, in doubles and in mp alike
    if d == 0 or d - d != 0:
        raise ToleranceFailure(f"{what} is singular (det {complex(d)})")
    return m.inv()


def _as_complex(m: Mat2C) -> Mat2C:
    return Mat2C(complex(m.m11), complex(m.m12), complex(m.m21),
                 complex(m.m22))


def direct_monodromy(state: LinearSystemState,
                     dps: Optional[int] = None) -> MonodromyPair:
    """Monodromy pair of the linear system read off the given ray data.

    Seeds the canonical frame near lambda = infinity (_seed_frame),
    transports it down the imaginary axis to the matching point and
    connects it to the local Frobenius frames there (_frobenius_monodromy),
    in the scalars of state: mpf / mpc (built under mp.workdps) select the
    mp backend.  LoopHitsSingularity when that path passes within 0.3 of
    +-e^{i phi}, i.e. for |phi| above about 1.27.

    dps runs the same chain in mpmath at that many digits, at least
    MIN_DPS (ValueError below), with the mp order and tolerances.
    """
    if dps is not None:
        from . import _highprec
        import mpmath as mp
        with mp.workdps(dps):
            return _highprec.direct_monodromy_mp(
                state.theta, state.phi, state.t, state.y, state.zfrak)
    lam0, p_seed, _ = _seed_frame(state, _backend_of(state.t).N)
    m0, m1 = _frobenius_monodromy(state, lam0, p_seed)
    return MonodromyPair(_as_complex(m0), _as_complex(m1), state.theta)


# ---------------------------------------------------------------------------
# drift metric

_DRIFT_ZERO_TOL = 1e-6  # zero threshold of the gauge cascade of the pairs


@dataclass(frozen=True)
class DriftReport:
    drift: float
    t_values: Tuple[float, ...]
    pairs: Tuple[MonodromyPair, ...]


def _pair_distance(a: MonodromyPair, b: MonodromyPair) -> float:
    """Entrywise distance, absolute below unit scale and relative above.

    Truncated-family seeds given in doubles carry a genuinely huge
    invariant entry (seed roundoff divided by the exp(-|x|) mode size), so
    its cross-base agreement is only meaningful relatively; entries of
    ordinary size keep the plain absolute comparison. A non-finite entry
    in either pair makes the distance infinite.
    """
    worst = 0.0
    for ma, mb in ((a.m0, b.m0), (a.m1, b.m1)):
        for ea, eb in zip(ma.rows()[0] + ma.rows()[1],
                          mb.rows()[0] + mb.rows()[1]):
            if not (cmath.isfinite(ea) and cmath.isfinite(eb)):
                return cmath.inf
            scale = max(1.0, abs(ea), abs(eb))
            worst = max(worst, abs(ea - eb) / scale)
    return worst


def _normalized_drift(raw_pairs: Sequence[MonodromyPair], zero_tol: float
                      ) -> Tuple[float, List[MonodromyPair]]:
    """Largest pairwise distance after one common gauge normal form.

    The cascade entry is chosen on the last pair (the reference, largest
    t) and every pair is normalised at that entry: the zero threshold is
    relative to the pair norm, which grows along the ray, so choosing per
    pair can scale different entries at different bases.
    """
    index = gauge_cascade_index(raw_pairs[-1], zero_tol)
    pairs = [gauge_normalize_at(p, index) for p in raw_pairs]
    worst = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            worst = max(worst, _pair_distance(pairs[i], pairs[j]))
    return worst, pairs


def _drift_pairs(theta: ThetaTriple, seed: Dict[str, complex],
                 t_list: Sequence[float], num: Callable
                 ) -> Tuple[List[float], List[MonodromyPair]]:
    """Raw pairs at the sorted bases of one trajectory, its legs chained.

    In the scalars num gives the seed (complex, or mp.mpc under
    mp.workdps): bases at or below the seed's |x| are reached leg by leg
    (_ray_leg) going down from it, bases above it going up, and
    direct_monodromy reads the pair off the state at each base.
    """
    phi, start = _ray_start(seed, num)
    bk = _backend_of(start[1])
    t_sorted = sorted(float(t) for t in t_list)
    states: Dict[float, Tuple] = {}
    for part in ([t for t in reversed(t_sorted) if t <= start[0]],
                 [t for t in t_sorted if t > start[0]]):
        cur = start
        for t in part:
            cur = states[t] = _ray_leg(theta, phi, cur, t)
    return t_sorted, [direct_monodromy(LinearSystemState(
        bk.num(t), phi, *states[t][1:], theta)) for t in t_sorted]


def isomonodromy_drift(theta: ThetaTriple, seed: Dict[str, complex],
                       t_list: Sequence[float],
                       dps: Optional[int] = None) -> DriftReport:
    """Spread of the gauge-normalized monodromy along one trajectory.

    The pairs come from one chained ray (_drift_pairs) and are normalised
    at the cascade entry the pair at the largest t selects (see
    _normalized_drift).  dps runs the same driver in mpmath at that many
    digits, at least MIN_DPS (ValueError below), with the mp ray order and
    tolerances of _mp_backend.  Seeds of the truncated families need this:
    their distinguishing solution mode scales like exp(-|x|), far below
    double roundoff at |x| ~ 60, so the double-precision drift of such a
    seed is meaningless noise in the subdominant entries.
    """
    if dps is not None:
        from . import _highprec
        t_sorted, raw = _highprec.drift_pairs_mp(theta, seed, t_list, dps=dps)
    else:
        t_sorted, raw = _drift_pairs(theta, seed, t_list, complex)
    worst, pairs = _normalized_drift(raw, _DRIFT_ZERO_TOL)
    return DriftReport(worst, tuple(t_sorted), tuple(pairs))
