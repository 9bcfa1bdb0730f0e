"""Independent numerical verification layer.

Integrates the nonlinear first-order system along rays, integrates the
2x2 linear lambda-system to read monodromy matrices directly off the
trajectory data, and measures how far the computed monodromy drifts as
the base point moves (it should not).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

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

_I2 = np.eye(2, dtype=complex)
_SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])


# ---------------------------------------------------------------------------
# coefficient data of the linear system

def residue_matrices(theta: ThetaTriple, y: complex,
                     zfrak: complex) -> Tuple[np.ndarray, np.ndarray]:
    """Residues at lambda = -e^{i phi} (theta0) and +e^{i phi} (theta1)."""
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    z = zfrak
    b0 = np.array([[z + t0 / 2, -z - t0],
                   [z, -z - t0 / 2]], dtype=complex)
    b1 = np.array([[-z - (t0 + ti) / 2, y * (z + (t0 - t1 + ti) / 2)],
                   [-(z + (t0 + t1 + ti) / 2) / y, z + (t0 + ti) / 2]],
                  dtype=complex)
    return b0, b1


@dataclass(frozen=True)
class LinearSystemState:
    """Solution data at one point of a ray, enough to assemble the system."""

    t: float
    phi: float
    y: complex
    zfrak: complex
    log_u: complex
    theta: ThetaTriple

    @property
    def x(self) -> complex:
        return cmath.exp(1j * self.phi) * self.t

    @property
    def uhat(self) -> complex:
        varpi = cmath.exp(1j * self.phi) * self.t / 4.0 \
            + 0.5 * self.theta.thetaInf * (1j * self.phi + math.log(2.0))
        return cmath.exp(self.log_u - 2.0 * varpi)

    def coefficient_matrix(self, lam: complex) -> np.ndarray:
        b0, b1 = residue_matrices(self.theta, self.y, self.zfrak)
        e = cmath.exp(1j * self.phi)
        return (self.t / 4.0) * _SIGMA3 + b0 / (lam + e) + b1 / (lam - e)

    def residue_residuals(self) -> Dict[str, float]:
        """Trace and eigenvalue defects of both residues (should be ~0)."""
        b0, b1 = residue_matrices(self.theta, self.y, self.zfrak)
        t0, t1 = self.theta.theta0, self.theta.theta1
        return {
            "trace_b0": abs(np.trace(b0)),
            "trace_b1": abs(np.trace(b1)),
            "det_b0": abs(np.linalg.det(b0) + t0 * t0 / 4.0),
            "det_b1": abs(np.linalg.det(b1) + t1 * t1 / 4.0),
        }


@dataclass(frozen=True)
class LoopSpec:
    base_point: complex
    loop_tag: str  # "l0" (around -e^{i phi}) or "l1" (around +e^{i phi})
    polyline: Tuple[complex, ...]


@dataclass(frozen=True)
class ODETrajectory:
    samples: Tuple[Tuple[complex, complex, complex, complex], ...]
    rtol: float
    atol: float
    seed_ref: str

    def state_at(self, index: int, theta: ThetaTriple) -> LinearSystemState:
        x, y, z, lu = self.samples[index]
        return LinearSystemState(t=abs(x), phi=cmath.phase(x), y=y,
                                 zfrak=z, log_u=lu, theta=theta)

    def final_state(self, theta: ThetaTriple) -> LinearSystemState:
        return self.state_at(len(self.samples) - 1, theta)


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
    """Auxiliary variable from (y, y'), inverting the first ray equation."""
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    return -x * (yprime - y) / (2 * (y - 1) ** 2) \
        + (t0 + t1) / (2 * (y - 1)) - (t0 - t1 + ti) / 4.0


def yprime_from_y_zfrak(theta: ThetaTriple, x: complex, y: complex,
                        zfrak: complex) -> complex:
    fy, _, _ = pv_rhs_first_order(theta, x, y, zfrak)
    return fy / x


def integrate_pv(theta: ThetaTriple, seed: Dict[str, complex], t_end: float,
                 n_samples: int = 33, rtol: float = 1e-12, atol: float = 1e-13,
                 guard: float = 1e-6) -> ODETrajectory:
    """Integrate the ray system from the seed's |x| to t_end (either way).

    seed needs "x" and "y" plus one of "zfrak" / "yprime"; "log_u" defaults
    to 0 (it is a gauge degree of freedom). Terminates with HitSingularity
    when y approaches 0 or 1.
    """
    x0 = complex(seed["x"])
    if x0 == 0:
        raise ValueError("seed must sit at nonzero x")
    phi = cmath.phase(x0)
    t_start = abs(x0)
    y0 = complex(seed["y"])
    if "zfrak" in seed:
        z0 = complex(seed["zfrak"])
    elif "yprime" in seed:
        z0 = zfrak_from_y_yprime(theta, x0, y0, complex(seed["yprime"]))
    else:
        raise ValueError("seed needs zfrak or yprime")
    lu0 = complex(seed.get("log_u", 0.0))
    if min(abs(y0), abs(y0 - 1.0)) < guard:
        raise HitSingularity(f"seed y={y0} already inside the guard band")

    eiphi = cmath.exp(1j * phi)
    ref = f"x0={x0!r} y0={y0!r}"
    if abs(t_end - t_start) < 1e-15 * max(1.0, t_start):
        # zero-length span: scipy returns an empty solution, so short-circuit
        return ODETrajectory(((x0, y0, z0, lu0),), rtol, atol, ref)

    def rhs(t, v):
        y = complex(v[0], v[1])
        z = complex(v[2], v[3])
        x = eiphi * t
        fy, fz, fu = pv_rhs_first_order(theta, x, y, z)
        out = np.empty(6)
        dy = fy / t
        dz = fz / t
        du = fu / t
        out[0], out[1] = dy.real, dy.imag
        out[2], out[3] = dz.real, dz.imag
        out[4], out[5] = du.real, du.imag
        return out

    def ev_zero(t, v):
        return math.hypot(v[0], v[1]) - guard

    def ev_one(t, v):
        return math.hypot(v[0] - 1.0, v[1]) - guard

    ev_zero.terminal = True
    ev_one.terminal = True

    t_eval = np.linspace(t_start, t_end, max(2, n_samples))
    sol = solve_ivp(rhs, (t_start, t_end),
                    [y0.real, y0.imag, z0.real, z0.imag, lu0.real, lu0.imag],
                    method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval,
                    events=[ev_zero, ev_one], dense_output=False)
    if sol.status == 1:
        hit_t = None
        for arr in sol.t_events:
            if len(arr):
                hit_t = arr[0] if hit_t is None else min(hit_t, arr[0])
        raise HitSingularity(f"y reached a guard band near t={hit_t}")
    if not sol.success:
        raise ToleranceFailure(f"ray integration failed: {sol.message}")

    samples = []
    ts = np.asarray(sol.t)
    for k in range(ts.shape[0]):
        t = float(ts[k])
        v = sol.y[:, k]
        samples.append((eiphi * t, complex(v[0], v[1]),
                        complex(v[2], v[3]), complex(v[4], v[5])))
    return ODETrajectory(tuple(samples), rtol, atol, ref)


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

@dataclass(frozen=True)
class CanonicalFrame:
    frame: Mat2C
    defect: float
    coeffs: Tuple[Mat2C, ...]


def _series_coefficients(state: LinearSystemState, N: int) -> List[np.ndarray]:
    """Y_1..Y_N of the large-lambda expansion, diagonal parts included.

    Matching powers after substituting (I + sum Y_m L^-m) e^{g sigma3} into
    the system; the off-diagonal of Y_m comes from the commutator at order
    m, the diagonal of Y_{m-1} from requiring the diagonal at order m to
    vanish.  That diagonal is linear in diag(Y_{m-1}) with slope exactly
    m-1 (never zero): the +-thetaInf/2 of the sigma3 term cancels against
    diag(b0 + b1) = (-thetaInf/2, +thetaInf/2).
    """
    t = state.t
    ti = state.theta.thetaInf
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    e = cmath.exp(1j * state.phi)
    c_mats = [None] + [(-e) ** (m - 1) * b0 + e ** (m - 1) * b1
                       for m in range(1, N + 2)]

    ys = [np.array(_I2)]  # Y_0 = I

    def k_of(m: int) -> np.ndarray:
        prev = ys[m - 1]
        out = (m - 1) * prev + (ti / 2.0) * prev @ _SIGMA3 + c_mats[m]
        for j in range(1, m):
            out = out + c_mats[j] @ ys[m - j]
        return out

    for m in range(1, N + 2):
        if m >= 2:
            prev = ys[m - 1]
            prev[0, 0] = prev[1, 1] = 0.0
            k0 = k_of(m)
            prev[0, 0] = -k0[0, 0] / (m - 1)
            prev[1, 1] = -k0[1, 1] / (m - 1)
            k = k_of(m)
            if max(abs(k[0, 0]), abs(k[1, 1])) > 1e-8 * (1 + np.abs(k).max()):
                raise ToleranceFailure(
                    f"diagonal matching failed at order {m}")
        else:
            k = k_of(m)
        if m <= N:
            ym = np.zeros((2, 2), dtype=complex)
            ym[0, 1] = -2.0 * k[0, 1] / t
            ym[1, 0] = 2.0 * k[1, 0] / t
            ys.append(ym)
    return ys[1:]


def canonical_frame(state: LinearSystemState, lam: complex,
                    N: int = 3) -> CanonicalFrame:
    """Truncated canonical solution near lambda = infinity, with its defect.

    The defect is measured on the polynomial part P (bounded entries), so
    it is meaningful even where the exponential factor is enormous.
    """
    t = state.t
    ti = state.theta.thetaInf
    coeffs = _series_coefficients(state, N) if N >= 1 else []
    p = np.array(_I2)
    pprime = np.zeros((2, 2), dtype=complex)
    for m, ym in enumerate(coeffs, start=1):
        p = p + ym * lam ** (-m)
        pprime = pprime + (-m) * ym * lam ** (-m - 1)
    gprime = t / 4.0 - ti / (2.0 * lam)
    defect_mat = pprime + gprime * (p @ _SIGMA3) - state.coefficient_matrix(lam) @ p
    defect = float(np.abs(defect_mat).max())
    g = (t * lam - 2.0 * ti * cmath.log(lam)) / 4.0
    frame_np = p @ np.diag([cmath.exp(g), cmath.exp(-g)])
    frame = Mat2C(frame_np[0, 0], frame_np[0, 1], frame_np[1, 0], frame_np[1, 1])
    return CanonicalFrame(frame, defect,
                          tuple(Mat2C(*ym.reshape(4)) for ym in coeffs))


# ---------------------------------------------------------------------------
# linear transport

def _transport_columns(state: LinearSystemState, start: complex,
                       waypoints: Sequence[complex], v0: np.ndarray,
                       rtol: float = 1e-12, atol: float = 1e-13) -> np.ndarray:
    """Transport the column-gauged canonical frame along a polyline.

    Column 0 of the actual frame equals (column 0 of v) * exp(g) and
    column 1 equals (column 1 of v) * exp(-g), with g the canonical
    exponent; transporting v instead keeps entries of moderate size along
    paths where Re(lambda) stays small.  Both columns are integrated as one
    complex system per segment, with the residues hoisted out of the
    right-hand side.
    """
    q = state.t / 4.0
    half_ti = state.theta.thetaInf / 2.0
    e = cmath.exp(1j * state.phi)
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    b0_11, b0_12, b0_21, b0_22 = (complex(c) for c in b0.reshape(4))
    b1_11, b1_12, b1_21, b1_22 = (complex(c) for c in b1.reshape(4))
    v = np.array(v0, dtype=complex)
    pos = complex(start)
    for target in waypoints:
        target = complex(target)
        seg = target - pos
        for sing in (-e, e):
            # distance from segment to each singular point
            d = _point_segment_distance(sing, pos, target)
            if d < 0.3:
                raise LoopHitsSingularity(
                    f"path segment passes within {d:.3f} of {sing}")

        def rhs(s, w):
            lam = pos + seg * s
            d0 = 1.0 / (lam + e)
            d1 = 1.0 / (lam - e)
            a11 = q + b0_11 * d0 + b1_11 * d1
            a12 = b0_12 * d0 + b1_12 * d1
            a21 = b0_21 * d0 + b1_21 * d1
            a22 = -q + b0_22 * d0 + b1_22 * d1
            gp = q - half_ti / lam
            u0, u1, x0, x1 = w.tolist()
            return [seg * (a11 * u0 + a12 * u1 - gp * u0),
                    seg * (a21 * u0 + a22 * u1 - gp * u1),
                    seg * (a11 * x0 + a12 * x1 + gp * x0),
                    seg * (a21 * x0 + a22 * x1 + gp * x1)]

        w0 = np.array([v[0, 0], v[1, 0], v[0, 1], v[1, 1]])
        sol = solve_ivp(rhs, (0.0, 1.0), w0, method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise ToleranceFailure(
                f"linear transport failed on segment to {target}: {sol.message}")
        wf = sol.y[:, -1]
        v = np.array([[wf[0], wf[2]], [wf[1], wf[3]]])
        pos = target
    return v


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    s = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    s = min(1.0, max(0.0, s))
    return abs(p - (a + ab * s))


def _exp_sigma3_np(a: complex) -> np.ndarray:
    return np.diag([cmath.exp(a), cmath.exp(-a)])


def _canonical_g(state: LinearSystemState, lam: complex) -> complex:
    return (state.t * lam - 2.0 * state.theta.thetaInf * cmath.log(lam)) / 4.0


# ---------------------------------------------------------------------------
# local Frobenius frames at the two finite singular points

def _local_frame(state: LinearSystemState, which: int, lam_match: complex,
                 terms: int = 220) -> Tuple[np.ndarray, complex]:
    """Fundamental local solution Phi(lam_match) = (sum G_k w^k) w^{D}.

    which = 0 for the point carrying theta0 (-e^{i phi}), 1 for theta1.
    Returns (Phi(lam_match), theta_local). Resonant integer theta makes the
    order-k operator singular and is reported, not patched. terms is a
    cap; the sum stops once the tail is negligible (the terms first grow
    like e^{t|w|/4} before the geometric decay in |w|/2 wins).
    """
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    e = cmath.exp(1j * state.phi)
    if which == 0:
        r_self, r_other = b0, b1
        s_self, s_other = -e, e
        th = state.theta.theta0
        z, t0 = state.zfrak, state.theta.theta0
        g0 = np.array([[z + t0, 1.0], [z, 1.0]], dtype=complex)
    else:
        r_self, r_other = b1, b0
        s_self, s_other = e, -e
        th = state.theta.theta1
        z = state.zfrak
        t0, t1, ti = state.theta.theta0, state.theta.theta1, state.theta.thetaInf
        alpha = z + 0.5 * (t0 - t1 + ti)
        beta = z + 0.5 * (t0 + t1 + ti)
        g0 = np.array([[state.y * alpha, state.y], [beta, 1.0]], dtype=complex)
    if abs(np.linalg.det(g0)) < 1e-12 * max(1.0, np.abs(g0).max() ** 2):
        raise ToleranceFailure(
            "residue eigenbasis is degenerate (apparent-singularity data?)")

    d_diag = np.array([th / 2.0, -th / 2.0], dtype=complex)
    dist = s_self - s_other
    q_sigma3 = np.array([[state.t / 4.0], [-state.t / 4.0]])
    # operator G -> k G + G D - R G, acting entrywise as k I + op_const
    op_const = np.kron(_I2, np.diag(d_diag)) - np.kron(r_self, _I2)
    eye4 = np.eye(4, dtype=complex)

    w = lam_match - s_self
    g_prev = g0
    # u = sum_{j<k} (-1)^j dist^-(j+1) G_{k-1-j}: the expansion of
    # r_other / (lam - s_other) in w, convolved with G, as a recurrence
    u = np.zeros((2, 2), dtype=complex)
    acc = g0.astype(complex).copy()
    wk = 1.0 + 0.0j
    recent = [math.inf] * 3
    for k in range(1, terms + 1):
        u = (g_prev - u) / dist
        rhs = q_sigma3 * g_prev + r_other @ u
        try:
            gk = np.linalg.solve(k * eye4 + op_const,
                                 rhs.reshape(4)).reshape(2, 2)
        except np.linalg.LinAlgError as exc:
            raise ToleranceFailure(
                f"resonant local exponents at order {k} (integer theta?)") from exc
        g_prev = gk
        wk *= w
        term = gk * wk
        acc = acc + term
        recent = recent[1:] + [float(np.abs(term).max())]
        if k > 8 and max(recent) < 1e-14 * max(1.0, float(np.abs(acc).max())):
            break
    tail = max(recent)
    if tail > 1e-10 * max(1.0, float(np.abs(acc).max())):
        raise ToleranceFailure(
            f"local series tail {tail:.2e} too large at {terms} terms")
    logw = cmath.log(w)
    wd = np.diag([cmath.exp(d_diag[0] * logw), cmath.exp(d_diag[1] * logw)])
    return acc @ wd, th


# ---------------------------------------------------------------------------
# direct monodromy

def default_loops(phi: float, base_point: complex) -> Tuple[LoopSpec, LoopSpec]:
    """Square loops with vertical tails, one around each singular point."""
    e = cmath.exp(1j * phi)
    h = 0.55
    specs = []
    for tag, s in (("l0", -e), ("l1", e)):
        top = s + h * 1j
        square = (top, s + complex(-h, h), s + complex(-h, -h),
                  s + complex(h, -h), s + complex(h, h), top)
        poly = (top,) + square[1:] + (base_point,)
        specs.append(LoopSpec(base_point, tag, poly))
    return specs[0], specs[1]


def _poly_part(cf: CanonicalFrame, lam: complex) -> np.ndarray:
    p = np.array(_I2)
    for m, ym in enumerate(cf.coeffs, start=1):
        arr = np.array([[ym.m11, ym.m12], [ym.m21, ym.m22]])
        p = p + arr * lam ** (-m)
    return p


def _seed_frame(state: LinearSystemState, N: int, defect_cap: float = 1e-8,
                lam: Optional[complex] = None) -> Tuple[complex, np.ndarray, float]:
    """Base point on the upper imaginary axis with an acceptable defect.

    The ladder starts close to the singular points, at |lambda| = 10, and
    climbs by factors of 1.5 until the order-N frame meets defect_cap; at
    the default order N = 16 of direct_monodromy the first rung already
    passes for t up to 60, so the transport down to the matching point
    stays short.  With lam fixed (a caller-chosen base point) no adaptation
    happens and an excessive defect is an error right away.
    """
    if lam is not None:
        cf = canonical_frame(state, lam, N)
        if cf.defect > defect_cap:
            raise SeedDefectTooLarge(
                f"seed defect {cf.defect:.2e} above {defect_cap:.0e} at {lam}")
        return lam, _poly_part(cf, lam), cf.defect
    rho = 10.0
    while True:
        lam = 1j * rho
        cf = canonical_frame(state, lam, N)
        if cf.defect <= defect_cap:
            return lam, _poly_part(cf, lam), cf.defect
        rho *= 1.5
        if rho > 2000.0:
            raise SeedDefectTooLarge(
                f"seed defect {cf.defect:.2e} above {defect_cap:.0e} "
                f"even at |base| = {rho / 1.5:.0f}")


def _frobenius_monodromy(state: LinearSystemState, lam0: complex,
                         p_seed: np.ndarray, rtol: float, atol: float,
                         match_height: float) -> Tuple[np.ndarray, np.ndarray]:
    """(M0, M1) from the canonical frame seeded at lam0 with part p_seed.

    Transports the frame down the imaginary axis to i*match_height and
    connects it there to the local Frobenius frames of both singular points.
    """
    lam_m = 1j * match_height
    v = _transport_columns(state, lam0, (lam_m,), p_seed,
                           rtol=rtol, atol=atol)
    det_drift = abs(np.linalg.det(v) - np.linalg.det(p_seed))
    if det_drift > 1e-9:
        raise ToleranceFailure(
            f"transport det drift {det_drift:.2e} exceeds 1e-9")
    e_m = _exp_sigma3_np(_canonical_g(state, lam_m))
    y_m = v @ e_m
    out = []
    for which in (0, 1):
        phi_loc, th = _local_frame(state, which, lam_m)
        c = np.linalg.solve(phi_loc, y_m)
        e_loop = _exp_sigma3_np(1j * cmath.pi * th)
        out.append(np.linalg.solve(c, e_loop @ c))
    return out[0], out[1]


def direct_monodromy(state: LinearSystemState,
                     loops: Optional[Tuple[LoopSpec, LoopSpec]] = None,
                     N: int = 16, method: str = "frobenius",
                     rtol: float = 1e-12, atol: float = 1e-13,
                     match_height: float = 0.3,
                     dps: Optional[int] = None) -> MonodromyPair:
    """Monodromy pair of the linear system read off the given ray data.

    frobenius (default): transport the canonical frame down the imaginary
    axis to a matching point between the singular points, then use local
    series frames there; immune to the exponential dichotomy that ruins
    loop transport at large t. transport: literal polyline transport
    around the loops (accurate at moderate t, kept as an independent
    cross-check and for loop-homotopy experiments).

    N is the order of the large-lambda series of the seed frame.  The
    default 16 lets the seed sit at |lambda| = 10 (see _seed_frame); a
    smaller N still works, with the seed pushed further out.
    """
    if method not in ("frobenius", "transport"):
        raise ValueError(f"unknown method {method!r}")
    if dps is not None:
        if method != "frobenius":
            raise ValueError("dps is only supported with the frobenius method")
        from . import _highprec
        import mpmath as mp
        with mp.workdps(dps):
            return _highprec.direct_monodromy_mp(
                state.theta, state.phi, state.t, state.y, state.zfrak,
                match_height=match_height)
    base = loops[0].base_point if (method == "transport" and loops) else None
    lam0, p_seed, defect = _seed_frame(state, N, lam=base)

    if method == "transport":
        if loops is None:
            loops = default_loops(state.phi, lam0)
        out = []
        g0 = _canonical_g(state, lam0)
        e_base = _exp_sigma3_np(g0)
        y_base = p_seed @ e_base
        y_base_inv = np.linalg.inv(y_base)
        for spec in loops:
            v = _transport_columns(state, lam0, spec.polyline, p_seed,
                                   rtol=rtol, atol=atol)
            y_loop = v @ e_base
            out.append(y_base_inv @ y_loop)
        m0_np, m1_np = out
    else:
        m0_np, m1_np = _frobenius_monodromy(state, lam0, p_seed, rtol, atol,
                                            match_height)

    def to_mat(a: np.ndarray) -> Mat2C:
        return Mat2C(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    return MonodromyPair(to_mat(m0_np), to_mat(m1_np), state.theta, tol=1e-3)


# ---------------------------------------------------------------------------
# drift metric

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
    ordinary size keep the plain absolute comparison.
    """
    worst = 0.0
    for ma, mb in ((a.m0, b.m0), (a.m1, b.m1)):
        for ea, eb in zip(ma.rows()[0] + ma.rows()[1],
                          mb.rows()[0] + mb.rows()[1]):
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
    pairs = [gauge_normalize_at(p, index).pair for p in raw_pairs]
    worst = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            worst = max(worst, _pair_distance(pairs[i], pairs[j]))
    return worst, pairs


def isomonodromy_drift(theta: ThetaTriple, seed: Dict[str, complex],
                       t_list: Sequence[float], N: int = 16,
                       zero_tol: float = 1e-6,
                       perturb: Optional[Tuple[float, complex]] = None,
                       dps: Optional[int] = None) -> DriftReport:
    """Spread of the gauge-normalized monodromy along one trajectory.

    The ray is integrated once: bases at or below the seed's |x| are
    reached leg by leg going down from the seed, bases above it leg by leg
    going up.  All pairs are normalised at the cascade entry the pair at
    the largest t selects (see _normalized_drift).

    perturb, when given, is (t_value, dy): after integrating to the matching
    |x| the solution value y is shifted by dy before the monodromy solve.
    The shift never enters the state the next leg starts from.  The shifted
    data leaves the original trajectory, so the reported drift blows up;
    this is the negative control for the metric.

    dps switches the whole chain (ray integration included) to the
    arbitrary-precision path.  Seeds of the truncated families need this:
    their distinguishing solution mode scales like exp(-|x|), far below
    double roundoff at |x| ~ 60, so the double-precision drift of such a
    seed is meaningless noise in the subdominant entries.
    """
    if dps is not None:
        if perturb is not None:
            raise ValueError("perturb is not supported on the dps path")
        from . import _highprec
        t_sorted, raw_pairs = _highprec.drift_pairs_mp(theta, seed, t_list,
                                                       dps=dps)
        worst, pairs = _normalized_drift(raw_pairs, zero_tol)
        return DriftReport(worst, tuple(t_sorted), tuple(pairs))
    t_sorted = sorted(float(t) for t in t_list)
    t_seed = abs(complex(seed["x"]))
    states: Dict[float, LinearSystemState] = {}
    for leg in ([t for t in reversed(t_sorted) if t <= t_seed],
                [t for t in t_sorted if t > t_seed]):
        start = seed
        for t in leg:
            traj = integrate_pv(theta, start, t, n_samples=2)
            states[t] = traj.final_state(theta)
            x, y, z, lu = traj.samples[-1]
            start = {"x": x, "y": y, "zfrak": z, "log_u": lu}
    raw = []
    for t in t_sorted:
        st = states[t]
        if perturb is not None and abs(t - perturb[0]) < 1e-12 * max(1.0, t):
            st = LinearSystemState(st.t, st.phi, st.y + perturb[1],
                                   st.zfrak, st.log_u, st.theta)
        raw.append(direct_monodromy(st, N=N))
    worst, pairs = _normalized_drift(raw, zero_tol)
    return DriftReport(worst, tuple(t_sorted), tuple(pairs))
