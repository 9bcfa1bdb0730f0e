"""Acceptance gate: thirteen pinned criteria, one pass/fail line each.

Each test prints a single [PASS]/[FAIL] line (visible with -s, or via the
pytest -v status column through the test name) and asserts at the stated
tolerance. Tolerances and sample counts are fixed contract values, not
tunable knobs.
"""

import cmath
import math
import random
import time

from pvrh.asymptotics import (
    AsymptoticDescriptor,
    eval_elliptic,
    formal_series_pv,
)
from pvrh.boutroux_elliptic import (
    cycle_integral,
    jacobi_sn,
    sn_derivative,
    solve_boutroux,
)
from pvrh.char_variety import (
    char_coords,
    check_coords,
    fricke_residual,
    hat_coords,
    monodromy_action,
)
from pvrh.errors import InsidePoleDisk, NearPole
from pvrh.mono_core import (
    FamilyElement,
    ThetaTriple,
    apply_operator,
    exp_sigma3,
    gauge_normalize,
    monodromy_shift,
    product_from_stokes,
    stokes_check,
    stokes_from_pair,
    stokes_hat,
    u_p_matrix,
    validate_pair,
)
from pvrh.oracle import (
    LinearSystemState,
    direct_monodromy,
    isomonodromy_drift,
    pv_residual,
    zfrak_from_y_yprime,
)
from pvrh.rh_dispatch import example_22_coefficient
from scipy.special import gamma as scipy_gamma

from support import (
    THETA_DESK,
    doubly_truncated_pair,
    max_entry_diff,
    random_valid_pair,
    trunc00_y_yprime,
)


def _report(num: int, label: str, worst: float, bound: float) -> None:
    ok = worst < bound
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: "
          f"worst {worst:.3e} vs bound {bound:.0e}")
    assert ok, f"criterion {num:02d} {label}: {worst:.3e} >= {bound:.0e}"


def test_criterion_01_boutroux_anchors_and_symmetry():
    start = time.monotonic()
    worst_anchor = max(abs(solve_boutroux(0.0).A),
                       abs(solve_boutroux(0.5 * math.pi).A - 1.0))
    worst_sym = 0.0
    for i in range(25):
        phi = 0.03 + (0.5 * math.pi - 0.06) * i / 24.0
        a_pos = solve_boutroux(phi).A
        a_neg = solve_boutroux(-phi).A
        worst_sym = max(worst_sym, abs(a_neg - a_pos.conjugate()))
    # the solver reduces negative angles by reflection, so the comparison
    # above alone would be vacuous; re-check a few reflected moduli against
    # the defining conditions through the public quadrature
    for i in range(0, 25, 4):
        phi = 0.03 + (0.5 * math.pi - 0.06) * i / 24.0
        a_neg = solve_boutroux(-phi).A
        for cyc in ("a", "b"):
            cond = (cmath.exp(-1j * phi)
                    * cycle_integral(a_neg, "boutroux", cyc)).real
            worst_sym = max(worst_sym, abs(cond))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"modulus sweep took {elapsed:.1f} s"
    _report(1, "modulus anchors and reflection symmetry",
            max(worst_anchor, worst_sym), 1e-8)


def test_criterion_02_cubic_residual_on_random_pairs(rng):
    pairs = [random_valid_pair(rng) for _ in range(1000)]
    start = time.monotonic()
    worst = max(abs(fricke_residual(char_coords(p))) for p in pairs)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"residual sweep took {elapsed:.2f} s"
    _report(2, "cubic surface residual, 1000 random pairs", worst, 1e-12)


def test_criterion_03_coordinate_action_matches_conjugation(rng):
    worst = 0.0
    for _ in range(1000):
        pair = random_valid_pair(rng)
        point = char_coords(pair)
        moved = monodromy_action(point)
        brute = char_coords(monodromy_shift(pair, 1))
        worst = max(worst, abs(moved.x0 - brute.x0), abs(moved.x1 - brute.x1),
                    abs(moved.x2 - brute.x2))
        assert moved.x2 == point.x2, "third coordinate must be copied exactly"
    _report(3, "polynomial action vs conjugated coordinates", worst, 1e-12)


def test_criterion_04_operator_identities_after_normalization(rng):
    def entry_gap(a, b) -> float:
        # roundoff scales with entry size, so large entries are compared
        # relatively and order-one entries absolutely
        return max(abs(x - y) / max(1.0, abs(x), abs(y))
                   for x, y in zip((a.m11, a.m12, a.m21, a.m22),
                                   (b.m11, b.m12, b.m21, b.m22)))

    def elem_gap(a: FamilyElement, b: FamilyElement) -> float:
        assert (a.index, a.family) == (b.index, b.family)
        ga = gauge_normalize(a.pair)
        gb = gauge_normalize(b.pair)
        return max(entry_gap(ga.m0, gb.m0), entry_gap(ga.m1, gb.m1))

    worst = 0.0
    for _ in range(500):
        base = random_valid_pair(rng)
        elem = FamilyElement(base, 0, "plain")
        hat = apply_operator("s0", elem, base)

        step = apply_operator("shat1", hat, base)
        worst = max(worst, elem_gap(step, apply_operator("m", elem, base)))

        worst = max(worst, elem_gap(apply_operator("shat0", hat, base), elem))

        fwd = apply_operator("s0", apply_operator("shat1", hat, base), base)
        hat_shift = FamilyElement(monodromy_shift(hat.pair, 1),
                                  hat.index + 1, "hat")
        worst = max(worst, elem_gap(fwd, hat_shift))

        back = apply_operator("s1", apply_operator("shat1", hat, base), base)
        worst = max(worst, elem_gap(back, hat))
    _report(4, "family operator identities, 500 pairs", worst, 1e-12)


def test_criterion_05_sheet_power_and_factorization(rng):
    worst_power = 0.0
    worst_recon = 0.0
    for _ in range(200):
        pair = random_valid_pair(rng)
        stokes = stokes_from_pair(pair)
        prod = pair.product()
        worst_recon = max(worst_recon,
                          max_entry_diff(product_from_stokes(stokes), prod))
        ti = pair.theta.thetaInf
        for p in range(-3, 4):
            lhs = u_p_matrix(stokes, p)
            rhs = prod.power(-p) @ exp_sigma3(-1j * cmath.pi * ti * p)
            worst_power = max(worst_power, max_entry_diff(lhs, rhs))
    assert worst_recon < 1e-12, f"factorization residual {worst_recon:.3e}"
    _report(5, "partial-product shift identity, 200 pairs x 7 indices",
            worst_power, 1e-10)


def test_criterion_06_twist_images_on_the_cubic(rng):
    worst = 0.0
    for _ in range(500):
        pair = random_valid_pair(rng)
        point = char_coords(pair)

        hp = hat_coords(point)
        worst = max(worst, abs(fricke_residual(hp)))
        hb = char_coords(stokes_hat(pair))
        worst = max(worst, abs(hp.x0 - hb.x0), abs(hp.x1 - hb.x1),
                    abs(hp.x2 - hb.x2))

        cp = check_coords(point)
        worst = max(worst, abs(fricke_residual(cp)))
        cb = char_coords(stokes_check(pair))
        worst = max(worst, abs(cp.x0 - cb.x0), abs(cp.x1 - cb.x1),
                    abs(cp.x2 - cb.x2))
    _report(6, "twist images solve the negated-ambient cubic", worst, 1e-10)


def test_criterion_07_end_to_end_doubly_truncated_seed():
    start = time.monotonic()
    theta = THETA_DESK
    series = formal_series_pv("minus_one", theta, 8)
    x = 60.0
    y = series.eval(x)
    z = zfrak_from_y_yprime(theta, x, y, series.eval_deriv(x))
    state = LinearSystemState(x, 0.0, y, z, theta)
    pair = direct_monodromy(state)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"monodromy solve took {elapsed:.1f} s"

    w = cmath.exp(-1j * cmath.pi * theta.thetaInf)
    worst_entry = max(abs(pair.m0.m11), abs(pair.m1.m11),
                      abs(pair.m0.m21 * pair.m1.m12 - w))
    rep = validate_pair(pair.m0, pair.m1, theta, tol=1e-6)
    worst_trace = max(rep.residuals["trace_m0"], rep.residuals["trace_m1"])
    assert worst_trace < 1e-6, f"trace residual {worst_trace:.3e}"
    _report(7, "both corner entries vanish for the series seed",
            worst_entry, 1e-3)


def test_criterion_08_end_to_end_exponentially_corrected_seed():
    start = time.monotonic()
    theta = THETA_DESK
    x = 60.0
    y, yp = trunc00_y_yprime(theta, 1.0, x)
    state = LinearSystemState(x, 0.0, y,
                              zfrak_from_y_yprime(theta, x, y, yp), theta)
    pair = gauge_normalize(direct_monodromy(state), zero_tol=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"monodromy solve took {elapsed:.1f} s"

    target = cmath.exp(1j * cmath.pi * theta.theta1)
    worst = max(abs(pair.m1.m11 - target), abs(pair.m1.m12))
    _report(8, "one-sided truncation signature for corrected seed",
            worst, 1e-3)


def test_criterion_09_isomonodromy_drift_both_seeds():
    theta = THETA_DESK
    series = formal_series_pv("minus_one", theta, 8)
    y1 = series.eval(60.0)
    seed1 = {"x": 60.0, "y": y1,
             "zfrak": zfrak_from_y_yprime(theta, 60.0, y1,
                                          series.eval_deriv(60.0))}
    drift1 = isomonodromy_drift(theta, seed1, [50.0, 55.0, 60.0]).drift

    y2, yp2 = trunc00_y_yprime(theta, 1.0, 60.0)
    seed2 = {"x": 60.0, "y": y2,
             "zfrak": zfrak_from_y_yprime(theta, 60.0, y2, yp2)}
    # doubles lose the recessive entries under the e^{+-x/2} dichotomy for
    # this seed, so the drift for it runs through the high-precision path
    drift2 = isomonodromy_drift(theta, seed2, [50.0, 55.0, 60.0],
                                dps=50).drift
    _report(9, "monodromy drift across matching points for both seeds",
            max(drift1, drift2), 1e-3)


def test_criterion_10_elliptic_degenerate_limits(rng):
    worst_lim = 0.0
    for j in range(100):
        u = -3.0 + 6.0 * j / 99.0
        worst_lim = max(worst_lim,
                        abs(jacobi_sn(u, 0.0) - math.sin(u)),
                        abs(jacobi_sn(u, 1.0) - math.tanh(u)))
    assert worst_lim < 1e-12, f"degenerate-limit error {worst_lim:.3e}"

    worst_ode = 0.0
    done = 0
    while done < 100:
        u = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.2, 1.2))
        k = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.6, 0.6))
        try:
            s = jacobi_sn(u, k)
            sp = sn_derivative(u, k)
        except NearPole:
            continue
        if abs(s) > 1e3:
            continue
        worst_ode = max(worst_ode, abs(sp * sp - (1.0 - s * s)
                                       * (1.0 - k * k * s * s)))
        done += 1
    _report(10, "sn limits and first-order identity", worst_ode, 1e-8)


def test_criterion_11_series_residual_scaling():
    def grid_residual(tag: str, center: float) -> float:
        series = formal_series_pv(tag, THETA_DESK, 6)
        xs = [center + 0.25 * (i - 4) for i in range(9)]
        return pv_residual(xs, [series.eval(x) for x in xs], THETA_DESK)

    worst_ratio_err = 0.0
    for tag in ("minus_one", "small0"):
        ratio = grid_residual(tag, 30.0) / grid_residual(tag, 60.0)
        assert 12.8 <= ratio <= 1280.0, \
            f"{tag}: halving gain {ratio:.1f} outside [2^7/10, 2^7*10]"
        worst_ratio_err = max(worst_ratio_err, abs(math.log10(ratio / 128.0)))
    _report(11, "order-6 truncation gain per doubling (log10 vs 2^7)",
            worst_ratio_err, 1.0 + 1e-12)


def test_criterion_12_closed_form_constants(rng):
    worst_slot = 0.0
    for _ in range(100):
        theta = ThetaTriple(rng.uniform(-0.45, 0.45),
                            rng.uniform(-0.45, 0.45),
                            rng.uniform(-0.45, 0.45))
        pair = doubly_truncated_pair(theta)
        got = stokes_hat(pair).m1.m11
        want = 2.0 * (cmath.cos(cmath.pi * theta.theta1)
                      + cmath.exp(1j * cmath.pi * theta.thetaInf)
                      * cmath.cos(cmath.pi * theta.theta0))
        worst_slot = max(worst_slot, abs(got - want))
    assert worst_slot < 1e-12, f"hat-image slot residual {worst_slot:.3e}"

    theta = THETA_DESK
    t0, t1, ti = theta.theta0, theta.theta1, theta.thetaInf
    got = example_22_coefficient(theta, 1.0)
    gap = 2j * math.pi / (scipy_gamma(t0)
                          * scipy_gamma(0.5 * (t0 + t1 - ti))
                          * scipy_gamma(1.0 + 0.5 * (t0 - t1 - ti)))
    frozen = 1 + 0.49665330563000804j
    worst = max(abs((got - 1.0) - gap), abs(got - frozen))
    _report(12, "hat-image slot and quarter-turn coefficient jump",
            worst, 1e-12)


def test_criterion_13_elliptic_leading_consistency():
    theta = THETA_DESK
    phi = -0.6
    sol = solve_boutroux(phi)
    x0 = 0.3 + 0.2j
    d = AsymptoticDescriptor(variant="Elliptic",
                             params={"A": sol.A, "x0": x0},
                             sector=(-0.5 * math.pi, 0.0), theta=theta)
    k = cmath.sqrt(sol.A)
    if k.real < 0:
        k = -k

    def band(t0: float, n: int = 60, span: float = 30.0) -> float:
        worst = 0.0
        used = 0
        for j in range(n):
            x = (t0 + span * j / (n - 1)) * cmath.exp(1j * phi)
            try:
                _, _, z = eval_elliptic(x, d, sol)
            except (InsidePoleDisk, NearPole):
                continue
            u = 0.5 * (x - x0)
            s = jacobi_sn(u, k)
            leading = (x / 8.0) * (k * sn_derivative(u, k)
                                   + sol.A * s * s - 1.0)
            worst = max(worst, abs(z - leading))
            used += 1
        assert used >= n // 2, "too many window points hit pole disks"
        return worst

    b300 = band(300.0)
    b600 = band(600.0)
    # the defect against the leading display is O(1) absolutely, so the
    # per-x (relative) band is what contracts when |x| doubles
    assert b600 * 8.0 / 600.0 < b300 * 8.0 / 300.0, \
        f"relative band grew: {b300 * 8 / 300:.4f} -> {b600 * 8 / 600:.4f}"
    _report(13, "auxiliary value tracks the leading elliptic display",
            b300, 10.0)
