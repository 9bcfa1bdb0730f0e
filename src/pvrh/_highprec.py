"""mpmath ray stepper and the mp entry points of the monodromy chain.

Double precision cannot separate the exponentially small solution mode of
the truncated families at |x| near 60 from roundoff: the mode scales like
exp(-|x|), while the connection solve at the matching point cancels about
exp(|x|/2) worth of digits when it digs the subdominant column out of the
local frame.  Both the ray transport of the seed and the linear solve
therefore need tens of extra digits before the small monodromy entries of
such seeds mean anything.

The monodromy chain itself (canonical seed, lambda-transport, local
Frobenius frames, matching) lives once in pvrh.oracle and runs here on
mpc states.  This module holds what has no double twin: Taylor stepping
of the nonlinear ray system in mp scalars, and the entry points the dps
arguments of the oracle select, only where doubles are provably
insufficient.
"""

from __future__ import annotations

import cmath
from typing import Dict, List, Sequence, Tuple

import mpmath as mp

from . import oracle
from .errors import HitSingularity, ToleranceFailure
from .mono_core import MonodromyPair, ThetaTriple


# ---------------------------------------------------------------------------
# Taylor stepping for the nonlinear ray system

_RAY_ORDER = 56         # Taylor terms of one ray step
_RAY_GUARD = 1e-6       # a leg stops when y comes this close to 0 or 1

def _conv(a: List, b: List, k: int):
    lo = max(0, k - len(b) + 1)
    hi = min(k, len(a) - 1)
    s = mp.mpc(0)
    for j in range(lo, hi + 1):
        s += a[j] * b[k - j]
    return s


def _horner(coeffs: List, h):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * h + c
    return acc


def _ray_step_coeffs(theta: ThetaTriple, e, t0c, y0, z0,
                     lu0) -> Tuple[List, List, List]:
    """Taylor coefficients in u = t - t0 of (y, zfrak, log u) around t0."""
    th0 = mp.mpf(theta.theta0)
    th1 = mp.mpf(theta.theta1)
    ti = mp.mpf(theta.thetaInf)
    a = (th0 - th1 + ti) / 2
    bq = (3 * th0 + th1 + ti) / 2
    c = (th0 + th1 + ti) / 2

    y = [mp.mpc(y0)]
    z = [mp.mpc(z0)]
    lu = [mp.mpc(lu0)]
    yi = [1 / y[0]]
    # derived series, filled one order per loop pass
    v: List = []      # y - 1
    vsq: List = []    # (y-1)^2
    zv: List = []     # z (y-1)^2
    ayb: List = []    # a y - bq
    wse: List = []    # (y-1)(a y - bq)
    zpa: List = []
    zp0: List = []
    zpc: List = []
    q1: List = []
    p1: List = []
    q2: List = []
    p2: List = []
    p3: List = []
    p4: List = []
    fy: List = []
    fz: List = []
    fu: List = []
    # 1/(t0 + u) as an explicit geometric series
    gi = []
    gcur = 1 / mp.mpc(t0c)
    for _ in range(_RAY_ORDER + 1):
        gi.append(gcur)
        gcur = -gcur / t0c
    et0 = e * t0c
    for k in range(_RAY_ORDER):
        v.append(y[k] - (1 if k == 0 else 0))
        vsq.append(_conv(v, v, k))
        zv.append(_conv(z, vsq, k))
        ayb.append(a * y[k] - (bq if k == 0 else 0))
        wse.append(_conv(v, ayb, k))
        xyk = et0 * y[k] + (e * y[k - 1] if k >= 1 else 0)
        fy.append(xyk - 2 * zv[k] - wse[k])
        zpa.append(z[k] + (a if k == 0 else 0))
        zp0.append(z[k] + (th0 if k == 0 else 0))
        zpc.append(z[k] + (c if k == 0 else 0))
        q1.append(_conv(z, zpa, k))
        p1.append(_conv(y, q1, k))
        q2.append(_conv(zp0, zpc, k))
        p2.append(_conv(yi, q2, k))
        fz.append(p1[k] - p2[k])
        p3.append(_conv(y, zpa, k))
        p4.append(_conv(yi, zpc, k))
        fu.append(p3[k] + p4[k] - 2 * z[k] - (th0 if k == 0 else 0))
        kk = k + 1
        y.append(_conv(fy, gi, k) / kk)
        z.append(_conv(fz, gi, k) / kk)
        lu.append(_conv(fu, gi, k) / kk)
        s = mp.mpc(0)
        for j in range(1, kk + 1):
            s += y[j] * yi[kk - j]
        yi.append(-s / y[0])
    return y, z, lu


def _ray_final(theta: ThetaTriple, phi: float, t_start, y0, z0, lu0,
               t_end):
    """Follow the ray from t_start to t_end; returns final (y, z, log u).

    Runs at the ambient mp precision; per-step Taylor tail is pushed a
    few digits above the working epsilon.
    """
    dps = mp.mp.dps
    tol = mp.mpf(10) ** (-(dps - 8))
    stop = mp.mpf(10) ** (-(dps - 4))
    e = mp.exp(1j * mp.mpf(phi))
    tc = mp.mpf(t_start)
    target = mp.mpf(t_end)
    y, z, lu = mp.mpc(y0), mp.mpc(z0), mp.mpc(lu0)
    steps = 0
    while abs(target - tc) > stop * max(1, abs(target)):
        ys, zs, lus = _ray_step_coeffs(theta, e, tc, y, z, lu)
        rem = target - tc
        hcap = mp.mpf("0.45") * abs(tc)
        h = rem if abs(rem) <= hcap else hcap * mp.sign(rem)
        scale = max(mp.mpf(1), abs(ys[0]), abs(zs[0]))
        while True:
            ah = abs(h)
            tail = mp.mpf(0)
            for idx in range(_RAY_ORDER - 3, _RAY_ORDER + 1):
                tail = max(tail, (abs(ys[idx]) + abs(zs[idx])
                                  + abs(lus[idx])) * ah ** idx)
            if tail <= tol * scale:
                break
            if ah < mp.mpf("1e-3") * max(1, abs(tc)):
                raise ToleranceFailure(
                    "ray Taylor step collapsed; solution pole nearby?")
            h = h * mp.mpf("0.7")
        y = _horner(ys, h)
        z = _horner(zs, h)
        lu = _horner(lus, h)
        tc = tc + h
        if min(abs(y), abs(y - 1)) < _RAY_GUARD:
            raise HitSingularity(f"y reached a guard band near t={float(tc)}")
        steps += 1
        if steps > 500:
            raise ToleranceFailure("ray Taylor stepping did not converge")
    return y, z, lu


# ---------------------------------------------------------------------------
# entry points

def direct_monodromy_mp(theta: ThetaTriple, phi: float, t, y,
                        z) -> MonodromyPair:
    """Monodromy pair of the state (t, phi, y, zfrak) in mp scalars.

    Call under mp.workdps; y and z may be mpc (full precision) or complex.
    """
    state = oracle.LinearSystemState(mp.mpf(t), phi, mp.mpc(y), mp.mpc(z),
                                     0.0, theta)
    return oracle._monodromy(state, loops=None, N=None, method="frobenius")


def drift_pairs_mp(theta: ThetaTriple, seed: Dict[str, complex],
                   t_list: Sequence[float], dps: int = 50
                   ) -> Tuple[List[float], List[MonodromyPair]]:
    """Raw monodromy pairs along one trajectory, never leaving mp.

    The legs are chained as in the double path (oracle._ray_pairs).  The
    intermediate states stay at full precision between the ray transport
    and the linear solve; rounding them to doubles would re-inject exactly
    the exp(-|x|)-scale noise this path exists to avoid.
    """
    with mp.workdps(dps):
        _, y0, z0, lu0 = oracle._seed_values(theta, seed, mp.mpc)
        x0 = complex(seed["x"])
        phi = cmath.phase(x0)

        def leg(state, t_end):
            return (t_end,) + _ray_final(theta, phi, *state, t_end)

        def solve(t, state):
            return direct_monodromy_mp(theta, phi, t, state[1], state[2])

        return oracle._ray_pairs(t_list, abs(x0), (abs(x0), y0, z0, lu0),
                                 leg, solve)


def ray_final_mp(theta: ThetaTriple, seed: Dict[str, complex], t_end: float,
                 dps: int = 50) -> Tuple[complex, complex, complex]:
    """Final (y, zfrak, log u) of a ray leg, as doubles (for cross-checks)."""
    with mp.workdps(dps):
        _, y, z, lu = oracle._seed_values(theta, seed, mp.mpc)
        x0 = complex(seed["x"])
        y, z, lu = _ray_final(theta, cmath.phase(x0), abs(x0), y, z, lu,
                              t_end)
        return complex(y), complex(z), complex(lu)
