import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvrh._highprec import ray_final_mp
from pvrh.asymptotics import formal_series_pv
from pvrh.errors import GridTooCoarse, HitSingularity, SeedDefectTooLarge
from pvrh.mono_core import (
    Mat2C,
    MonodromyPair,
    ThetaTriple,
    gauge_normalize,
    product_from_stokes,
    stokes_from_pair,
    validate_pair,
)
from pvrh.oracle import (
    LinearSystemState,
    LoopSpec,
    _frobenius_monodromy,
    _local_frame,
    _normalized_drift,
    _pair_distance,
    _seed_frame,
    canonical_frame,
    default_loops,
    direct_monodromy,
    integrate_pv,
    isomonodromy_drift,
    pv_residual,
    residue_matrices,
    yprime_from_y_zfrak,
    zfrak_from_y_yprime,
)

from support import THETA_DESK, pair_diff, random_valid_pair

# theta0 + theta1 = 1 with thetaInf = 0 makes y = -1 an exact constant
# solution of the ray system, which gives every oracle check a trajectory
# whose ground truth is known in closed form
TH_CONST = ThetaTriple(0.3, 0.7, 0.0)


def const_state(t: float) -> LinearSystemState:
    z = zfrak_from_y_yprime(TH_CONST, t, -1.0, 0.0)
    return LinearSystemState(t, 0.0, -1.0, z, 0.0, TH_CONST)


def const_seed(t: float) -> dict:
    st_ = const_state(t)
    return {"x": t, "y": -1.0, "zfrak": st_.zfrak}


def desk_series_seed(x: float) -> dict:
    ser = formal_series_pv("minus_one", THETA_DESK, 8)
    y = ser.eval(x)
    return {"x": x, "y": y,
            "zfrak": zfrak_from_y_yprime(THETA_DESK, x, y, ser.eval_deriv(x))}


def desk_series_state(t: float) -> LinearSystemState:
    seed = desk_series_seed(t)
    return LinearSystemState(t, 0.0, seed["y"], seed["zfrak"], 0.0,
                             THETA_DESK)


def test_constant_trajectory_stays_put():
    traj = integrate_pv(TH_CONST, const_seed(40.0), 20.0, n_samples=41)
    assert max(abs(s[1] + 1.0) for s in traj.samples) < 1e-10


def test_zero_length_span_short_circuits():
    seed = const_seed(40.0)
    traj = integrate_pv(TH_CONST, seed, 40.0)
    assert len(traj.samples) == 1
    x, y, z, lu = traj.samples[0]
    assert x == seed["x"] and y == seed["y"] and z == seed["zfrak"]
    assert lu == 0.0


def test_ray_matches_formal_series_downrange():
    # drive the seed far enough in that the order-8 truncation error is
    # visible; the gap must stay inside a conservative multiple of the
    # first dropped term
    seed = desk_series_seed(60.0)
    traj = integrate_pv(THETA_DESK, seed, 30.0, n_samples=7)
    ser8 = formal_series_pv("minus_one", THETA_DESK, 8)
    ser9 = formal_series_pv("minus_one", THETA_DESK, 9)
    c9 = ser9.coeffs[9 - ser9.min_exp]
    budget = 5.0 * abs(c9) * 30.0 ** -9.0
    assert abs(traj.samples[-1][1] - ser8.eval(30.0)) < budget


def test_ray_integration_reverses_cleanly():
    seed = desk_series_seed(60.0)
    down = integrate_pv(THETA_DESK, seed, 30.0, n_samples=7)
    x, y, z, _ = down.samples[-1]
    back = integrate_pv(THETA_DESK, {"x": x, "y": y, "zfrak": z}, 60.0,
                        n_samples=7)
    assert abs(back.samples[-1][1] - seed["y"]) < 1e-9
    assert abs(back.samples[-1][2] - seed["zfrak"]) < 1e-9


def test_seed_input_guards():
    with pytest.raises(ValueError):
        integrate_pv(TH_CONST, {"x": 0.0, "y": -1.0, "zfrak": 0.0}, 10.0)
    with pytest.raises(ValueError):
        integrate_pv(TH_CONST, {"x": 40.0, "y": -1.0}, 30.0)
    with pytest.raises(HitSingularity):
        integrate_pv(TH_CONST, {"x": 40.0, "y": 1e-8, "zfrak": 0.0}, 30.0)
    with pytest.raises(HitSingularity):
        integrate_pv(TH_CONST, {"x": 40.0, "y": 1.0 + 1e-8, "zfrak": 0.0},
                     30.0)


def test_pv_residual_accepts_solution_rejects_impostor():
    xs = [30.0 + 0.1 * k for k in range(41)]
    assert pv_residual(xs, [-1.0] * 41, TH_CONST) < 1e-10
    ys_bad = [-1.0 + 0.05 * math.sin(x) for x in xs]
    assert pv_residual(xs, ys_bad, TH_CONST) > 1e-3


def test_pv_residual_grid_guards():
    with pytest.raises(GridTooCoarse):
        pv_residual([1.0, 2.0, 3.0, 4.0], [-1.0] * 4, TH_CONST)
    xs = [1.0, 2.0, 3.0, 4.1, 5.0]
    with pytest.raises(GridTooCoarse):
        pv_residual(xs, [-1.0] * 5, TH_CONST)


@settings(max_examples=60, deadline=None)
@given(
    yr=st.floats(-2.0, 2.0), yi=st.floats(-1.0, 1.0),
    pr=st.floats(-2.0, 2.0), pi=st.floats(-1.0, 1.0),
    xr=st.floats(2.0, 40.0), xi=st.floats(-10.0, 10.0),
)
def test_zfrak_yprime_conversions_invert(yr, yi, pr, pi, xr, xi):
    y = complex(yr, yi)
    # 0 and 1 are the movable-singularity values of the equation itself
    if abs(y - 1.0) < 0.2 or abs(y) < 0.2:
        return
    x = complex(xr, xi)
    yp = complex(pr, pi)
    z = zfrak_from_y_yprime(THETA_DESK, x, y, yp)
    back = yprime_from_y_zfrak(THETA_DESK, x, y, z)
    assert abs(back - yp) <= 1e-9 * max(1.0, abs(yp), abs(z))


def test_canonical_frame_defect_ladder():
    st_ = const_state(8.0)
    defects = [canonical_frame(st_, 10.0j, N).defect for N in range(5)]
    for lo, hi in zip(defects[1:], defects[:-1]):
        assert lo < hi
    assert defects[-1] < 1e-4
    # order zero keeps the bare exponential: diagonal, no power corrections
    cf0 = canonical_frame(st_, 10.0j, 0)
    assert cf0.frame.m12 == 0.0 and cf0.frame.m21 == 0.0
    assert abs(cf0.frame.m11 - cmath.exp(8.0 * 10.0j / 4.0)) < 1e-12
    res = st_.residue_residuals()
    assert all(v < 1e-12 for v in res.values())


def test_direct_monodromy_lands_on_the_manifold():
    out = direct_monodromy(const_state(8.0))
    rep = validate_pair(out.m0, out.m1, out.theta, tol=1e-6)
    assert rep.ok, rep.residuals
    # the Stokes factorisation read back off the pair reproduces the
    # counterclockwise product
    stk = stokes_from_pair(out)
    recon = product_from_stokes(stk)
    prod = out.product()
    gap = max(abs(a - b) for a, b in
              zip(recon.rows()[0] + recon.rows()[1],
                  prod.rows()[0] + prod.rows()[1]))
    assert gap < 1e-6


def _rect_loops(phi: float, base_point: complex, hw: float, hh: float):
    e = cmath.exp(1j * phi)
    out = []
    for tag, s in (("l0", -e), ("l1", e)):
        top = s + hh * 1j
        ring = (top, s + complex(-hw, hh), s + complex(-hw, -hh),
                s + complex(hw, -hh), s + complex(hw, hh), top)
        out.append(LoopSpec(base_point, tag, ring[1:] + (base_point,)))
    return out[0], out[1]


def test_loop_transport_is_homotopy_invariant_and_matches_frobenius():
    st_ = const_state(8.0)
    base = 140.0j
    square = direct_monodromy(st_, loops=default_loops(0.0, base), N=4,
                              method="transport")
    rect = direct_monodromy(st_, loops=_rect_loops(0.0, base, 0.8, 0.45),
                            N=4, method="transport")
    assert pair_diff(square, rect) < 1e-8
    frob = direct_monodromy(st_, N=4)
    assert pair_diff(square, frob) < 1e-6


def test_drift_small_on_trajectory_large_off_it():
    seed = const_seed(12.0)
    rep = isomonodromy_drift(TH_CONST, seed, [14.0, 12.0])
    assert rep.t_values == (12.0, 14.0)
    assert len(rep.pairs) == 2
    assert rep.drift < 1e-6
    # nudging y off the trajectory at one base point must blow the metric up
    bad = isomonodromy_drift(TH_CONST, seed, [12.0, 14.0],
                             perturb=(14.0, 0.01))
    assert bad.drift > 1e-3


def test_mp_ray_leg_matches_double_integration():
    seed = desk_series_seed(60.0)
    y_mp, z_mp, _ = ray_final_mp(THETA_DESK, seed, 55.0, dps=40)
    traj = integrate_pv(THETA_DESK, seed, 55.0, n_samples=2)
    assert abs(traj.samples[-1][1] - y_mp) < 1e-11
    assert abs(traj.samples[-1][2] - z_mp) < 1e-11


def test_mp_monodromy_matches_double_route():
    st_ = const_state(8.0)
    doubles = gauge_normalize(direct_monodromy(st_)).pair
    high = gauge_normalize(direct_monodromy(st_, dps=40)).pair
    assert pair_diff(doubles, high) < 1e-6


@pytest.mark.parametrize("t", [12.0, 30.0, 60.0])
def test_seed_frame_defect_near_the_singular_points(t):
    # the default order-16 frame is already accurate at |lambda| = 10,
    # so the ladder of _seed_frame stops at its first rung
    st_ = desk_series_state(t)
    assert canonical_frame(st_, 10.0j, 16).defect <= 1e-12
    lam0, _, defect = _seed_frame(st_, 16)
    assert lam0 == 10.0j and defect <= 1e-12


def _far_seed(state: LinearSystemState):
    # the order-3 seed at |lambda| = max(120, 2t), climbing by 1.5 until
    # the defect cap holds
    rho = max(120.0, 2.0 * state.t)
    while True:
        try:
            return _seed_frame(state, 3, lam=1j * rho)
        except SeedDefectTooLarge:
            rho *= 1.5


@pytest.mark.parametrize("t", [12.0, 30.0])
def test_near_seed_matches_far_seed(t):
    st_ = desk_series_state(t)
    lam0, p_seed, _ = _far_seed(st_)
    m0, m1 = _frobenius_monodromy(st_, lam0, p_seed, 1e-12, 1e-13, 0.3)
    far = MonodromyPair(Mat2C(*m0.reshape(4)), Mat2C(*m1.reshape(4)),
                        THETA_DESK)
    near = direct_monodromy(st_)
    assert pair_diff(gauge_normalize(near).pair,
                     gauge_normalize(far).pair) < 1e-8


def _local_frame_convolution(state: LinearSystemState, which: int,
                             lam_match: complex, terms: int = 220):
    """O(K^2) reference: order-k right side as a full Cauchy product."""
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    e = cmath.exp(1j * state.phi)
    z = state.zfrak
    t0, t1, ti = state.theta.theta0, state.theta.theta1, state.theta.thetaInf
    if which == 0:
        r_self, r_other, s_self, s_other, th = b0, b1, -e, e, t0
        g0 = np.array([[z + t0, 1.0], [z, 1.0]], dtype=complex)
    else:
        r_self, r_other, s_self, s_other, th = b1, b0, e, -e, t1
        g0 = np.array([[state.y * (z + 0.5 * (t0 - t1 + ti)), state.y],
                       [z + 0.5 * (t0 + t1 + ti), 1.0]], dtype=complex)
    d_mat = np.diag([th / 2.0, -th / 2.0])
    dist = s_self - s_other
    sigma3 = np.diag([1.0, -1.0])
    eye2 = np.eye(2)

    def h_mat(j):
        out = r_other * ((-1.0) ** j) / dist ** (j + 1)
        return out + (state.t / 4.0) * sigma3 if j == 0 else out

    w = lam_match - s_self
    gs = [g0]
    acc = g0.copy()
    wk = 1.0 + 0.0j
    recent = [math.inf] * 3
    for k in range(1, terms + 1):
        rhs = sum(h_mat(j) @ gs[k - 1 - j] for j in range(k))
        op = k * np.eye(4) + np.kron(eye2, d_mat.T) - np.kron(r_self, eye2)
        gk = np.linalg.solve(op, rhs.reshape(4)).reshape(2, 2)
        gs.append(gk)
        wk *= w
        acc = acc + gk * wk
        recent = recent[1:] + [float(np.abs(gk * wk).max())]
        if k > 8 and max(recent) < 1e-14 * max(1.0, float(np.abs(acc).max())):
            break
    logw = cmath.log(w)
    return acc @ np.diag([cmath.exp(th / 2.0 * logw),
                          cmath.exp(-th / 2.0 * logw)])


# at larger t the series terms peak near e^{t|w|/4} before they cancel, so
# both summations lose digits to roundoff (about 3e-11 relative at t = 30
# against a 40-digit sum) and no longer tell the recurrences apart
@pytest.mark.parametrize("state", [const_state(8.0), desk_series_state(12.0)],
                         ids=["const8", "desk12"])
@pytest.mark.parametrize("which", [0, 1])
def test_local_frame_matches_convolution_reference(state, which):
    lam_m = 0.3j
    fast, th = _local_frame(state, which, lam_m)
    ref = _local_frame_convolution(state, which, lam_m)
    assert th == (state.theta.theta0, state.theta.theta1)[which]
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


def test_drift_normalises_every_base_at_the_reference_entry(rng):
    # a diagonal conjugate whose norm pushes m0_21 under the zero
    # threshold: normalised one by one the two pairs land on different
    # representatives, at a common entry they coincide
    pair = random_valid_pair(rng)
    c2 = 1e4
    big = MonodromyPair(
        Mat2C(pair.m0.m11, pair.m0.m12 * c2, pair.m0.m21 / c2, pair.m0.m22),
        Mat2C(pair.m1.m11, pair.m1.m12 * c2, pair.m1.m21 / c2, pair.m1.m22),
        pair.theta)
    assert abs(big.m0.m21) < 1e-6 * (1.0 + big.norm_inf())
    one_by_one = _pair_distance(gauge_normalize(pair, zero_tol=1e-6).pair,
                                gauge_normalize(big, zero_tol=1e-6).pair)
    assert one_by_one > 0.1
    drift, pairs = _normalized_drift([pair, big], 1e-6)
    assert drift < 1e-12
    # the reference (last) pair keeps the normal form gauge_normalize gives
    assert pair_diff(pairs[-1], gauge_normalize(big, zero_tol=1e-6).pair) == 0.0


def test_drift_perturbation_stays_out_of_the_chained_ray():
    # the legs 12 -> 14 -> 16 are chained; shifting y at 14 must change the
    # pair at 14 only, not the state the leg to 16 starts from
    seed = const_seed(12.0)
    clean = isomonodromy_drift(TH_CONST, seed, [12.0, 14.0, 16.0])
    bad = isomonodromy_drift(TH_CONST, seed, [12.0, 14.0, 16.0],
                             perturb=(14.0, 0.01))
    assert pair_diff(bad.pairs[1], clean.pairs[1]) > 1e-3
    assert pair_diff(bad.pairs[2], clean.pairs[2]) == 0.0
