import cmath
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvrh.asymptotics import eval_elliptic, family_at, formal_series_pv
from pvrh.boutroux_elliptic import solve_boutroux
from pvrh.errors import (
    NUMERIC_ERRORS,
    GridTooCoarse,
    HitSingularity,
    LoopHitsSingularity,
    SeedDefectTooLarge,
)
from pvrh.mono_core import (
    Mat2C,
    MonodromyPair,
    ThetaTriple,
    gauge_normalize,
    product_from_stokes,
    stokes_from_pair,
    validate_pair,
)
from pvrh import oracle
from pvrh.oracle import (
    LinearSystemState,
    _frobenius_monodromy,
    _local_frame,
    _match_frame,
    _normalized_drift,
    _pair_distance,
    _poly_part,
    _ray_coeffs,
    _ray_leg,
    _ray_start,
    _seed_frame,
    _series_coefficients,
    _taylor_step as taylor_step,
    canonical_frame,
    direct_monodromy,
    integrate_pv,
    isomonodromy_drift,
    pv_residual,
    pv_rhs_first_order,
    residue_matrices,
    zfrak_from_y_yprime,
)

from pvrh.rh_dispatch import solve_rh
from support import (
    THETA_DESK,
    doubly_truncated_pair,
    fixed_seed_frame,
    kummer_solution,
    loop_transport_monodromy,
    pair_diff,
    perturbed_drift,
    r2_0_pair,
    r2_1_pair,
    random_valid_pair,
    ray_final_mp,
    ray_reference,
    square_loops,
    trunc00_y_yprime,
)

# theta0 + theta1 = 1 with thetaInf = 0 makes y = -1 an exact constant
# solution of the ray system, which gives every oracle check a trajectory
# whose ground truth is known in closed form
TH_CONST = ThetaTriple(0.3, 0.7, 0.0)


def const_state(t: float) -> LinearSystemState:
    z = zfrak_from_y_yprime(TH_CONST, t, -1.0, 0.0)
    return LinearSystemState(t, 0.0, -1.0, z, TH_CONST)


def const_seed(t: float) -> dict:
    st_ = const_state(t)
    return {"x": t, "y": -1.0, "zfrak": st_.zfrak}


def desk_series_seed(x: float, theta: ThetaTriple = THETA_DESK) -> dict:
    ser = formal_series_pv("minus_one", theta, 8)
    y = ser.eval(x)
    return {"x": x, "y": y,
            "zfrak": zfrak_from_y_yprime(theta, x, y, ser.eval_deriv(x))}


def desk_series_state(t: float) -> LinearSystemState:
    seed = desk_series_seed(t)
    return LinearSystemState(t, 0.0, seed["y"], seed["zfrak"],
                             THETA_DESK)


def test_constant_trajectory_stays_put():
    traj = integrate_pv(TH_CONST, const_seed(40.0), 20.0, n_samples=41)
    assert max(abs(s[1] + 1.0) for s in traj.samples) < 1e-10


def test_zero_length_span_short_circuits():
    seed = const_seed(40.0)
    traj = integrate_pv(TH_CONST, seed, 40.0)
    assert len(traj.samples) == 1
    x, y, z = traj.samples[0]
    assert x == seed["x"] and y == seed["y"] and z == seed["zfrak"]


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
    x, y, z = down.samples[-1]
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
    back = pv_rhs_first_order(THETA_DESK, x, y, z)[0] / x
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
    # both residues keep trace 0 and determinant -theta_j^2/4
    b0, b1 = residue_matrices(st_.theta, st_.y, st_.zfrak)
    t0, t1 = st_.theta.theta0, st_.theta.theta1
    res = (abs(b0.trace()), abs(b1.trace()),
           abs(b0.det() + t0 * t0 / 4.0), abs(b1.det() + t1 * t1 / 4.0))
    assert all(v < 1e-12 for v in res)


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


def test_loop_transport_is_homotopy_invariant_and_matches_frobenius():
    # literal transport around two loop shapes (tests/support.py), against
    # each other and against the Frobenius chain seeded at the same order
    st_ = const_state(8.0)
    base = 140.0j
    square = loop_transport_monodromy(
        st_, square_loops(0.0, base, 0.55, 0.55), 4)
    rect = loop_transport_monodromy(st_, square_loops(0.0, base, 0.8, 0.45), 4)
    assert pair_diff(square, rect) < 1e-8
    lam0, p_seed, _ = _seed_frame(st_, 4)
    m0, m1 = _frobenius_monodromy(st_, lam0, p_seed)
    assert pair_diff(square, MonodromyPair(m0, m1, TH_CONST)) < 1e-6


def test_drift_small_on_trajectory_large_off_it():
    seed = const_seed(12.0)
    rep = isomonodromy_drift(TH_CONST, seed, [14.0, 12.0])
    assert rep.t_values == (12.0, 14.0)
    assert len(rep.pairs) == 2
    assert rep.drift < 1e-6
    # nudging y off the trajectory at one base point must blow the metric up
    bad = perturbed_drift(TH_CONST, seed, [12.0, 14.0], (14.0, 0.01))
    assert bad.drift > 1e-3


def _check_mp_ray_leg(theta):
    seed = desk_series_seed(60.0, theta)
    y_mp, z_mp = ray_final_mp(theta, seed, 55.0, dps=40)
    traj = integrate_pv(theta, seed, 55.0, n_samples=2)
    assert abs(traj.samples[-1][1] - y_mp) < 1e-13
    assert abs(traj.samples[-1][2] - z_mp) < 1e-13


def test_mp_ray_leg_matches_double_integration():
    _check_mp_ray_leg(THETA_DESK)


def test_mp_ray_leg_matches_double_integration_complex_theta():
    _check_mp_ray_leg(ThetaTriple(0.2 + 0.1j, -0.15, 0.1))


def test_ray_stepper_matches_independent_references(rng):
    # both precisions share one Taylor stepper, so it is checked against
    # scipy's DOP853 on the ray system and, order by order, against the
    # right-hand side it expands
    seeds = [(THETA_DESK, desk_series_seed(60.0), 30.0)]
    pair = random_valid_pair(rng)
    for phi in (0.2, 0.5, -0.5):
        d = solve_rh(pair, phi)
        assert d.variant == "Elliptic"
        x = 30.0 * cmath.exp(1j * phi)
        y, _, z = eval_elliptic(x, d, solve_boutroux(cmath.phase(x)))
        seeds.append((pair.theta, {"x": x, "y": y, "zfrak": z}, 20.0))
    for theta, seed, t_end in seeds:
        got = integrate_pv(theta, seed, t_end, n_samples=2).samples[-1][1:]
        want = ray_reference(theta, seed, t_end)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10

    def dyadic():
        return complex(rng.randint(-64, 64), rng.randint(-64, 64)) / 128

    theta = ThetaTriple(dyadic(), dyadic(), dyadic())
    t0, phi = rng.uniform(10.0, 40.0), rng.uniform(-1.0, 1.0)
    state = (dyadic() + 2.0, dyadic())

    def check(e, args, bound):
        coeffs = _ray_coeffs(theta, phi, t0, *args)
        rhs = pv_rhs_first_order(theta, e * t0, *args)
        for series, f in zip(coeffs, rhs):
            assert abs(series[1] - f / t0) <= bound * max(1, abs(f / t0))

    check(cmath.exp(1j * phi), state, 1e-13)
    with mpmath.workdps(30):
        check(mpmath.exp(1j * mpmath.mpf(phi)),
              [mpmath.mpc(v) for v in state], 1e-25)


# c = (theta0 + theta1 + thetaInf)/2 = 0: zfrak = 0 is invariant and y is a
# classical solution, a ratio of Kummer functions (support.kummer_solution)
KUMMER_THETA = ThetaTriple(0.3, 0.25, -(0.3 + 0.25))
KUMMER_RATIOS = (0.0, 1e-9, 1e-3, 1.0)  # C1 / C2, with C2 = 1


def test_kummer_solution_solves_the_reduced_ray_system():
    # y' from Kummer's functions, not from the Riccati equation, so the
    # auxiliary variable read back from (y, y') must vanish, up to the
    # roundoff of x (y' - y), about t eps
    for c1 in KUMMER_RATIOS:
        for phi in (0.0, 0.6, -0.6):
            for t in (15.0, 20.0, 26.0, 40.0):
                x = t * cmath.exp(1j * phi)
                y, yp, z = kummer_solution(KUMMER_THETA, c1, 1, x)
                assert z == 0
                assert abs(zfrak_from_y_yprime(KUMMER_THETA, x, complex(y),
                                               complex(yp))) <= 1e-15 * t


@pytest.mark.parametrize("phi", [0.0, 0.6, -0.6])
def test_ray_legs_and_chain_match_kummer_solutions(phi):
    # an exact solution known apart from the oracle and the families; the
    # recessive C1 = 0 solution (U alone) loses about eps e^(t_end - t_start)
    # to the dominant M mode, 4e-5 over 15 -> 40, so it runs 20 -> 26
    e = cmath.exp(1j * phi)
    legs = [(c1, 15.0, 40.0) for c1 in KUMMER_RATIOS[1:]] + [(0.0, 20.0, 26.0)]
    for c1, t_start, t_end in legs:
        y0 = complex(kummer_solution(KUMMER_THETA, c1, 1, t_start * e)[0])
        seed = {"x": t_start * e, "y": y0, "zfrak": 0j}
        got = integrate_pv(KUMMER_THETA, seed, t_end).samples[-1][1]
        want = complex(kummer_solution(KUMMER_THETA, c1, 1, t_end * e)[0])
        assert abs(got - want) <= 1e-12 * abs(want), (c1, got, want)
    # with zfrak = c = 0 the linear system is upper triangular
    for c1 in KUMMER_RATIOS:
        y = complex(kummer_solution(KUMMER_THETA, c1, 1, 20.0 * e)[0])
        pair = direct_monodromy(LinearSystemState(20.0, phi, y, 0j,
                                                  KUMMER_THETA))
        assert pair.m0.m21 == 0 and pair.m1.m21 == 0


# c = 0 in binary too, so zfrak = 0 stays invariant at any precision; on
# KUMMER_THETA c is -2.8e-17 in exact binary, and an mp leg 15 -> 40 leaves
# the line by 2.5e-10
KUMMER_DYADIC_THETA = ThetaTriple(0.375, 0.25, -0.625)


@pytest.mark.parametrize("phi, c1, t_start, t_end", [
    (0.0, 1e-3, 20.0, 26.0), (0.6, 1.0, 20.0, 26.0), (-0.6, 1e-9, 15.0, 20.0)])
def test_mp_ray_legs_keep_the_digits_of_an_mp_seed(phi, c1, t_start, t_end):
    # the seed used to reach the leg through complex(), so these legs missed
    # by 2.2e-19, 3.9e-19 and 1.9e-15
    with mpmath.workdps(60):
        e = mpmath.exp(1j * mpmath.mpf(phi))
        y, _, z = kummer_solution(KUMMER_DYADIC_THETA, c1, 1, t_start * e, 60)
        want = kummer_solution(KUMMER_DYADIC_THETA, c1, 1, t_end * e, 60)[0]
    with mpmath.workdps(40):
        ray_phi, start = _ray_start({"x": t_start * e, "y": y, "zfrak": z},
                                    mpmath.mpc)
        assert ray_phi == phi
        _, got, _ = _ray_leg(KUMMER_DYADIC_THETA, ray_phi, start, t_end)
    with mpmath.workdps(60):
        assert abs(got - want) <= 1e-28 * abs(want), (got, want)


@pytest.fixture(scope="module")
def modules_new_after_import():
    # one fresh interpreter: the modules that `import pvrh.cli,
    # pvrh._highprec` adds, by full name
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys; before = set(sys.modules); "
            "import pvrh.cli, pvrh._highprec; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return set(json.loads(out.stdout))


def test_import_leaves_out_numpy_and_scipy(modules_new_after_import):
    # Gamma, K/E, the formal series and the ray stepper are plain Python,
    # so importing the library loads no third-party module but mpmath;
    # numpy and scipy together cost about half a second and 40 MiB at
    # every CLI start
    top = {m.partition(".")[0] for m in modules_new_after_import}
    assert top - set(sys.stdlib_module_names) - {"pvrh"} <= {"mpmath"}


def test_import_leaves_out_scipy_integrate(modules_new_after_import):
    # the ray stepper needs no ODE library, and importing one costs about
    # a third of a second and 25 MiB at every CLI start
    assert "scipy.integrate" not in modules_new_after_import


def test_singular_connection_matrix_is_a_numeric_failure():
    # a ray state whose frames make det C exactly 0; the inverse used to
    # raise a bare ZeroDivisionError, which the CLI reports as a
    # validation failure instead of a numeric one
    theta = ThetaTriple(-0.08555927629462712,
                        0.3365077972078151 + 0.06982978123112123j,
                        0.3099796663725433)
    state = LinearSystemState(40.0, 0.5,
                              -1.5018368206120225 - 0.5110630799437784j,
                              3.09753561193383 + 4.592880140340483j,
                              theta)
    with pytest.raises(NUMERIC_ERRORS):
        direct_monodromy(state)


def test_connection_guard_margin_at_criterion_08_state():
    # the exponentially small mode of the criterion 08 state (Trunc00,
    # t = 60) gives the worst-conditioned connection of the states that
    # must solve: |det C| / |C|_max^2 = 1.9e-18 for the theta1 frame, about
    # 2e6 above the guard of _frobenius_monodromy at tol^{3/2} = 1e-24
    y, yp = trunc00_y_yprime(THETA_DESK, 1.0, 60.0)
    st_ = LinearSystemState(60.0, 0.0, y,
                            zfrak_from_y_yprime(THETA_DESK, 60.0, y, yp),
                            THETA_DESK)
    lam0, p_seed, _ = _seed_frame(st_, 32)
    y_m = _match_frame(st_, lam0, p_seed)
    for which in (0, 1):
        c = _local_frame(st_, which, 0.3j)[0].inv() @ y_m
        assert abs(c.det()) \
            >= 1e5 * oracle._DOUBLE.tol ** 1.5 * c.norm_inf() ** 2
    direct_monodromy(st_)


def test_mp_monodromy_matches_double_route():
    st_ = const_state(8.0)
    doubles = gauge_normalize(direct_monodromy(st_))
    high = gauge_normalize(direct_monodromy(st_, dps=40))
    assert pair_diff(doubles, high) < 1e-6


def test_mp_solve_enters_through_direct_monodromy(monkeypatch):
    # the dps path solves its mp state through oracle.direct_monodromy, so
    # a wrapper there (as the benchmark's spans install) sees each mp solve
    entry = oracle.direct_monodromy
    seen = []

    def counting(state, dps=None):
        seen.append((state.t, dps))
        return entry(state, dps)

    monkeypatch.setattr(oracle, "direct_monodromy", counting)
    entry(const_state(8.0), dps=40)
    assert len(seen) == 1
    t, dps = seen[0]
    assert isinstance(t, mpmath.mpf) and t == 8 and dps is None


def test_dps_at_or_below_double_precision_is_refused():
    # at dps <= 16 the mp tail tolerance 10^-(dps - 16) is at least 1, and
    # below 30 the d - 16 digits it keeps fall short of the double chain
    for dps in (-3, 0, 5, 12, 16, 17, 20, 29):
        with pytest.raises(ValueError, match="at least 30"):
            direct_monodromy(const_state(8.0), dps=dps)
        with pytest.raises(ValueError, match="at least 30"):
            isomonodromy_drift(TH_CONST, const_seed(12.0), [12.0], dps=dps)


def test_drift_runs_one_driver_in_both_precisions(monkeypatch):
    # isomonodromy_drift reaches oracle._drift_pairs once per call, with
    # the seed in doubles, or in mpc at the requested dps
    driver = oracle._drift_pairs
    seen = []

    def counting(theta, seed, t_list, num):
        seen.append((num(complex(seed["y"])), mpmath.mp.dps))
        return driver(theta, seed, t_list, num)

    monkeypatch.setattr(oracle, "_drift_pairs", counting)
    isomonodromy_drift(TH_CONST, const_seed(12.0), [12.0, 14.0])
    assert len(seen) == 1 and type(seen[0][0]) is complex
    isomonodromy_drift(TH_CONST, const_seed(12.0), [12.0, 14.0], dps=30)
    assert len(seen) == 2
    y, dps = seen[1]
    assert isinstance(y, mpmath.mpc) and dps == 30


@pytest.mark.parametrize("t", [12.0, 30.0, 60.0])
def test_seed_frame_defect_near_the_singular_points(t):
    # the order-16 frame is already accurate at |lambda| = 10, and the
    # default order-32 frame at the first rung, |lambda| = max(5, 80/t),
    # so the ladder of _seed_frame stops there
    st_ = desk_series_state(t)
    assert canonical_frame(st_, 10.0j, 16).defect <= 1e-12
    lam0, _, defect = _seed_frame(st_, 32)
    assert lam0 == 1j * max(5.0, 80.0 / t) and defect <= 1e-12


@pytest.mark.parametrize("t", [3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 60.0, 90.0,
                               120.0])
def test_seed_ladder_defect_over_t(t):
    # the first rung scales with 1/t, so the divergent part of the series,
    # about e^{-t|lambda|/2}, stays small at small t, and at large t the
    # order-32 series is accurate close to the singular points
    _, _, defect = _seed_frame(desk_series_state(t), 32)
    assert defect <= 1e-13


@pytest.mark.parametrize("t, steps", [(12.0, 11), (30.0, 18), (60.0, 34)])
def test_transport_step_counts(monkeypatch, t, steps):
    # the Taylor steps of one solve (the axis and both local-frame paths),
    # retries included; a step rule or gauge that costs more steps shows
    # here without a timer
    calls = []

    def counting(*args):
        calls.append(args)
        return taylor_step(*args)

    monkeypatch.setattr(oracle, "_taylor_step", counting)
    direct_monodromy(desk_series_state(t))
    assert len(calls) == steps


@pytest.mark.parametrize("leg, sets", [("desk", 2), ("R2_1", 10)])
def test_ray_coefficient_sets_per_leg(monkeypatch, leg, sets):
    # coefficient sets of one ray leg: 60 -> 50 from the desk series seed,
    # and 35.83 -> 25.83 from an R2_1 seed, as pvrh verify runs it; a step
    # rule that halves or wastes steps shows here without a timer
    if leg == "desk":
        seed = desk_series_seed(60.0)
        theta, start = THETA_DESK, (60.0, seed["y"], seed["zfrak"])
        t_end = 50.0
    else:
        st_ = _family_state(r2_1_pair(), 35.83)
        theta, start = st_.theta, (st_.t, st_.y, st_.zfrak)
        t_end = 25.83
    calls = []

    def counting(*args):
        calls.append(args)
        return _ray_coeffs(*args)

    monkeypatch.setattr(oracle, "_ray_coeffs", counting)
    oracle._ray_leg(theta, 0.0, start, t_end)
    assert len(calls) == sets


def _column_error(got: Mat2C, want: Mat2C) -> float:
    worst = 0.0
    for g, w in (((got.m11, got.m21), (want.m11, want.m21)),
                 ((got.m12, got.m22), (want.m12, want.m22))):
        w = [complex(v) for v in w]
        worst = max(worst, max(abs(a - b) for a, b in zip(g, w))
                    / max(abs(v) for v in w))
    return worst


def _desk_state_on_ray(t: float, phi: float) -> LinearSystemState:
    seed = desk_series_seed(t * cmath.exp(1j * phi))
    return LinearSystemState(t, phi, seed["y"], seed["zfrak"],
                             THETA_DESK)


def test_direct_monodromy_reach_in_phi():
    # the path from the seed down the imaginary axis to the matching point
    # passes cos(phi) from e^{i phi}: 0.315 at phi = 1.25, inside the
    # clearance of 0.3 at 1.3 (0.267) and 1.5 (0.071)
    pair = direct_monodromy(_desk_state_on_ray(20.0, 1.25))
    assert validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-6).ok
    for phi, dist in ((1.3, "0.267"), (1.5, "0.071")):
        with pytest.raises(LoopHitsSingularity, match=f"within {dist} of"):
            direct_monodromy(_desk_state_on_ray(20.0, phi))


@pytest.mark.parametrize("t, phi", [(12.0, 0.0), (30.0, 0.0), (60.0, 0.0),
                                    (30.0, 0.6), (20.0, -0.6), (45.0, 0.3)])
def test_match_and_local_frames_match_mp_chain(t, phi):
    # Y at the matching point and both local frames there, in doubles,
    # against the same chain at dps 34, each column relative to its size
    st_ = _desk_state_on_ray(t, phi)
    lam0, p_seed, _ = _seed_frame(st_, 32)
    frames = [_match_frame(st_, lam0, p_seed)] \
        + [_local_frame(st_, which, 0.3j)[0] for which in (0, 1)]
    with mpmath.workdps(34):
        mst = LinearSystemState(mpmath.mpf(t), phi, mpmath.mpc(st_.y),
                                mpmath.mpc(st_.zfrak), THETA_DESK)
        lam0, p_seed, _ = _seed_frame(mst, 44)
        lam_m = mpmath.mpc(0.3j)
        want = [_match_frame(mst, lam0, p_seed)] \
            + [_local_frame(mst, which, lam_m)[0] for which in (0, 1)]
    for got, ref in zip(frames, want):
        assert _column_error(got, ref) <= 1e-13


@pytest.mark.parametrize("phi", [0.0, 0.6, -0.6])
@pytest.mark.parametrize("t", [12.0, 30.0, 60.0])
def test_local_frame_matches_unstripped_transport(t, phi):
    # _local_frame transports W = G e^{-(t/4) lambda sigma3} and puts w^D on
    # at the end; the reference transports Phi = G w^D itself, singular at
    # s, from the point where the series is summed.  It runs at dps 34:
    # at t = 60 each double route sits 6-9e-14 from it, in different
    # directions, so two double routes differ by up to 1.1e-13
    st_ = _desk_state_on_ray(t, phi)
    with mpmath.workdps(34):
        mst = LinearSystemState(mpmath.mpf(t), phi, mpmath.mpc(st_.y),
                                mpmath.mpc(st_.zfrak), THETA_DESK)
        e, lam_m = oracle._unit(mst), mpmath.mpc(0.3j)
        want = []
        for which, s in ((0, -e), (1, e)):
            w = lam_m - s
            lam_s = s + w * (oracle._FROBENIUS_REACH / mst.t / abs(w))
            phi_s, _ = _local_frame(mst, which, lam_s)
            v = oracle._transport(mst, (lam_s, lam_m),
                                  oracle._exp_gauge(mst, phi_s, -lam_s))
            want.append(oracle._exp_gauge(mst, v, lam_m))
    for which in (0, 1):
        got, _ = _local_frame(st_, which, 0.3j)
        assert _column_error(got, want[which]) <= 1e-13


def _poly_part_by_matrices(coeffs, lam):
    """P and P' summed term by term on Mat2C."""
    li = 1 / lam
    p = Mat2C.identity()
    pprime = Mat2C(0.0, 0.0, 0.0, 0.0)
    lpow = li
    for m, ym in enumerate(coeffs, start=1):
        p = p.add(ym.scale(lpow))
        pprime = pprime.add(ym.scale(-m * lpow * li))
        lpow = lpow * li
    return p, pprime


@pytest.mark.parametrize("t", [3.0, 12.0, 60.0])
@pytest.mark.parametrize("dps, bound", [(None, 1e-15), (30, 1e-25)],
                         ids=["double", "dps30"])
def test_poly_part_matches_matrix_sum(t, dps, bound):
    seed = desk_series_seed(t)

    def check(state, lam):
        coeffs = _series_coefficients(state, 32)
        for got, want in zip(_poly_part(coeffs, lam),
                             _poly_part_by_matrices(coeffs, lam)):
            assert got.sub(want).norm_inf() <= bound * want.norm_inf()

    if dps is None:
        check(LinearSystemState(t, 0.0, seed["y"], seed["zfrak"],
                                THETA_DESK), 1j * max(5.0, 80.0 / t))
        return
    with mpmath.workdps(dps):
        check(LinearSystemState(mpmath.mpf(t), 0.0, mpmath.mpc(seed["y"]),
                                mpmath.mpc(seed["zfrak"]), THETA_DESK),
              mpmath.mpc(1j * max(16.0, 80.0 / t)))


def _series_coefficients_direct(state: LinearSystemState, N: int, e, half_ti):
    """O(N^2) reference: R_m = sum_{j=2..m} C_j Y_{m-j} term by term."""
    b0, b1 = residue_matrices(state.theta, state.y, state.zfrak)
    c = [None] + [b0.scale((-e) ** (j - 1)).add(b1.scale(e ** (j - 1)))
                  for j in range(1, N + 2)]
    ys = [Mat2C.identity()]
    for m in range(1, N + 2):
        rest = Mat2C(0.0, 0.0, 0.0, 0.0)
        for j in range(2, m + 1):
            rest = rest.add(c[j] @ ys[m - j])

        def k_of(p: Mat2C) -> Mat2C:
            return rest.add(p.scale(m - 1)) \
                .add(Mat2C(p.m11, -p.m12, p.m21, -p.m22).scale(half_ti)) \
                .add(c[1] @ p)

        if m >= 2:
            k0 = k_of(ys[m - 1])  # diag(Y_{m-1}) is still zero here
            ys[m - 1] = Mat2C(-k0.m11 / (m - 1), ys[m - 1].m12,
                              ys[m - 1].m21, -k0.m22 / (m - 1))
        k = k_of(ys[m - 1])
        if m <= N:
            ys.append(Mat2C(0.0, -2 * k.m12 / state.t, 2 * k.m21 / state.t,
                            0.0))
    return ys[1:]


# at t = 12 the order-16 coefficient loses about 7e-14 to cancellation in
# either summation (both double results against a 40-digit one)
@pytest.mark.parametrize("theta, t, phi", [
    (THETA_DESK, 12.0, 0.0), (THETA_DESK, 30.0, 0.0), (THETA_DESK, 60.0, 0.0),
    (ThetaTriple(0.3 + 0.1j, -0.2 + 0.05j, 0.15 - 0.1j), 30.0, 0.4),
], ids=["desk12", "desk30", "desk60", "complex30"])
@pytest.mark.parametrize("dps, bound", [(None, 1e-13), (30, 1e-25)],
                         ids=["double", "dps30"])
def test_series_coefficients_match_direct_sum(theta, t, phi, dps, bound):
    # the seed series takes any (y, zfrak); the desk series seed gives
    # values of the right size at each t
    seed = desk_series_seed(t)

    def check(state, e, half_ti):
        got = _series_coefficients(state, 16)
        want = _series_coefficients_direct(state, 16, e, half_ti)
        assert len(got) == 16
        for a, b in zip(got, want):
            assert a.sub(b).norm_inf() <= bound * max(1, b.norm_inf())

    if dps is None:
        check(LinearSystemState(t, phi, seed["y"], seed["zfrak"], theta),
              cmath.exp(1j * phi), theta.thetaInf / 2)
        return
    with mpmath.workdps(dps):
        check(LinearSystemState(mpmath.mpf(t), phi, mpmath.mpc(seed["y"]),
                                mpmath.mpc(seed["zfrak"]), theta),
              mpmath.exp(1j * mpmath.mpf(phi)),
              mpmath.mpmathify(theta.thetaInf) / 2)


def _far_seed(state: LinearSystemState):
    # the order-3 seed at |lambda| = max(120, 2t), climbing by 1.5 until
    # the defect cap holds
    rho = max(120.0, 2.0 * state.t)
    while True:
        try:
            return fixed_seed_frame(state, 1j * rho, 3)
        except SeedDefectTooLarge:
            rho *= 1.5


@pytest.mark.parametrize("t", [12.0, 30.0])
def test_near_seed_matches_far_seed(t):
    st_ = desk_series_state(t)
    lam0, p_seed, _ = _far_seed(st_)
    m0, m1 = _frobenius_monodromy(st_, lam0, p_seed)
    far = MonodromyPair(m0, m1, THETA_DESK)
    near = direct_monodromy(st_)
    assert pair_diff(gauge_normalize(near),
                     gauge_normalize(far)) < 1e-8


def _local_frame_convolution(state: LinearSystemState, which: int,
                             lam_match: complex, terms: int = 220):
    """O(K^2) reference: order-k right side as a full Cauchy product."""
    b0, b1 = (np.array(m.rows()) for m in
              residue_matrices(state.theta, state.y, state.zfrak))
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


# the reference sums the series at the matching point itself, where at
# larger t its terms peak near e^{t|w|/4} before they cancel: it loses
# digits to roundoff there (about 3e-11 relative at t = 30 against a
# 40-digit sum) and no longer checks _local_frame, which sums within 4/t of
# the singular point and transports the rest of the way
@pytest.mark.parametrize("state", [const_state(8.0), desk_series_state(12.0)],
                         ids=["const8", "desk12"])
@pytest.mark.parametrize("which", [0, 1])
def test_local_frame_matches_convolution_reference(state, which):
    lam_m = 0.3j
    fast, th = _local_frame(state, which, lam_m)
    ref = _local_frame_convolution(state, which, lam_m)
    assert th == (state.theta.theta0, state.theta.theta1)[which]
    assert np.abs(np.array(fast.rows()) - ref).max() \
        <= 1e-13 * np.abs(ref).max()


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
    one_by_one = _pair_distance(gauge_normalize(pair, zero_tol=1e-6),
                                gauge_normalize(big, zero_tol=1e-6))
    assert one_by_one > 0.1
    drift, pairs = _normalized_drift([pair, big], 1e-6)
    assert drift < 1e-12
    # the reference (last) pair keeps the normal form gauge_normalize gives
    assert pair_diff(pairs[-1], gauge_normalize(big, zero_tol=1e-6)) == 0.0


def test_pair_distance_is_infinite_against_a_non_finite_entry():
    # max(worst, nan) kept worst, so a NaN entry used to read as agreement
    clean = Mat2C(1, 2, 3, 4)
    pair = MonodromyPair(clean, clean, TH_CONST)
    assert _pair_distance(pair, pair) == 0.0
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        broken = MonodromyPair(clean, Mat2C(1, 2, bad, 4), TH_CONST)
        assert _pair_distance(pair, broken) == math.inf
        assert _pair_distance(broken, pair) == math.inf


def test_drift_perturbation_stays_out_of_the_chained_ray():
    # the legs 12 -> 14 -> 16 are chained; shifting y at 14 must change the
    # pair at 14 only, not the state the leg to 16 starts from
    seed = const_seed(12.0)
    clean = isomonodromy_drift(TH_CONST, seed, [12.0, 14.0, 16.0])
    bad = perturbed_drift(TH_CONST, seed, [12.0, 14.0, 16.0],
                          (14.0, 0.01))
    assert pair_diff(bad.pairs[1], clean.pairs[1]) > 1e-3
    assert pair_diff(bad.pairs[2], clean.pairs[2]) == 0.0


# the double chain against a 40-digit one: the series seed at t = 60 is the
# hardest case for the local frames (summed at the matching point their
# terms would peak near e^{15}), the R2 states lie on the verify_double rays
def test_double_pair_matches_mp_pair_on_series_seed():
    st_ = desk_series_state(60.0)
    assert _pair_distance(direct_monodromy(st_),
                          direct_monodromy(st_, dps=40)) < 1e-10


def _family_state(pair: MonodromyPair, t: float) -> LinearSystemState:
    d = solve_rh(pair, 0.0)
    y, _, z = family_at(d, t)
    return LinearSystemState(t, 0.0, y, z, d.theta)


@pytest.mark.parametrize("pair, t", [
    (doubly_truncated_pair(r2_0_pair().theta), 27.5),
    (r2_0_pair(), 19.17),
    (r2_1_pair(), 35.83),
], ids=["R2_01", "R2_0", "R2_1"])
def test_double_pair_matches_mp_pair_on_r2_states(pair, t):
    st_ = _family_state(pair, t)
    assert _pair_distance(direct_monodromy(st_),
                          direct_monodromy(st_, dps=40)) < 1e-12


# gauge-normalised double pairs of R2 states on verify_double rays, frozen
# from the chain before its seed series took the O(N) recurrence; a change
# that keeps every answer to roundoff keeps them to 1e-13
R2_PINNED_PAIRS = {
    "R2_01": (
        ((-3.312929263143971e-07 - 8.674023626031868e-07j),
         (-1.00000038945755 - 1.019693207759964e-06j),
         (1 - 0j),
         (1.1755708358778727 + 8.674023624921645e-07j)),
        ((9.860826943874912e-08 + 9.232650226564942e-07j),
         (0.8910065241875982 - 0.45399049973914907j),
         (-0.8910070602315422 - 0.4539890962531885j),
         (1.6180338901416256 - 9.232650227120054e-07j)),
    ),
    "R2_0": (
        ((0.40584070137752476 - 0.1962200524620773j),
         (-0.6491100078068954 - 0.07140233865144047j),
         (1 - 0j),
         (0.7697298032074216 + 0.19622005246207724j)),
        ((-0.008232531907390761 + 0.012906439443167494j),
         (0.8918151184871359 - 0.4608438460182133j),
         (-0.9063391905829618 - 0.4446944967878637j),
         (1.6262665206572853 - 0.012906439443167328j)),
    ),
    "R2_1": (
        ((-0.010123859195729223 - 0.03597397192199803j),
         (-1.0107096761322403 - 0.0430183311771668j),
         (1 - 0j),
         (1.1856943637806754 + 0.03597397192199803j)),
        ((0.7852670644014781 + 0.3606417100973427j),
         (0.885982742626434 - 0.4220902385203295j),
         (-0.2062002771067477 - 0.07890073932937945j),
         (0.8327669243484168 - 0.36064171009734275j)),
    ),
}


@pytest.mark.parametrize("name, pair, t", [
    ("R2_01", doubly_truncated_pair(r2_0_pair().theta), 28.0),
    ("R2_0", r2_0_pair(), 19.0),
    ("R2_1", r2_1_pair(), 36.0),
], ids=["R2_01", "R2_0", "R2_1"])
def test_double_pair_matches_pinned_pair(name, pair, t):
    got = gauge_normalize(direct_monodromy(_family_state(pair, t)))
    for m, want in zip((got.m0, got.m1), R2_PINNED_PAIRS[name]):
        for a, b in zip(m.rows()[0] + m.rows()[1], want):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


# gauge-normalised dps=50 pair of the criterion 09 Trunc00 state at t = 60,
# frozen from an independent mpmath implementation of the chain (O(K^2)
# Taylor convolutions, local series summed at the matching point).  A
# Python float inside the mp recurrences moves its large entries far beyond
# 1e-13 relative, while raising dps to 70 leaves them as they are, so only a
# pinned pair catches one.
TRUNC00_T60_DPS50 = (
    (0.47386866247299864 - 0.880595531856738j,
     0.02476564392510125 - 0.046022278135435454j,
     1.0 + 0.0j,
     0.5261313375270015 + 0.880595531856738j),
    (0.8090169943749475 + 0.5877852522924731j,
     -3.4780888228824726e-40 + 1.6749591966425812e-40j,
     -1.9420386777930916e+16 - 3.608912590743451e+16j,
     0.8090169943749475 - 0.5877852522924731j),
)
# the tiny m1_12 entry of the same pair at dps 70 (dps 90 gives the same
# doubles); dps 50 resolves it to 3.4e-10 relative, the pinned pair above to
# 2.4e-8
TRUNC00_T60_M1_12_DPS70 = -3.4780887908639683e-40 + 1.6749592836390538e-40j


def test_mp_pair_matches_pinned_pair():
    y, yp = trunc00_y_yprime(THETA_DESK, 1.0, 60.0)
    st_ = LinearSystemState(60.0, 0.0, y,
                            zfrak_from_y_yprime(THETA_DESK, 60.0, y, yp),
                            THETA_DESK)
    got = gauge_normalize(direct_monodromy(st_, dps=50))
    # dps 50 resolves entries to about 1e-48 absolutely, so entries are
    # compared relatively down to an absolute floor of 1e-45; below it, the
    # m1_12 entry is held to the dps-70 value
    for m, want in zip((got.m0, got.m1), TRUNC00_T60_DPS50):
        for a, b in zip(m.rows()[0] + m.rows()[1], want):
            assert abs(a - b) <= 1e-13 * abs(b) + 1e-45
    want = TRUNC00_T60_M1_12_DPS70
    assert abs(got.m1.m12 - want) <= 1e-8 * abs(want)


def test_benchmark_layers_resolve(monkeypatch):
    # the benchmark's tracer wraps these names, and its worker imports
    # pvrh._highprec while it sets up
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    importlib.import_module("pvrh._highprec")
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"pvrh.{layer}")
        for name in names:
            assert callable(getattr(module, name)), f"{layer}.{name}"
