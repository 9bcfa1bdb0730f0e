import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvrh.asymptotics import (
    build_trunc_family,
    build_trunc_nongeneric,
    phase_shift_breve,
    phase_shift_x0,
    recover_c0,
    recover_c0_nongeneric,
    reduce_mod_lattice,
)
from pvrh.boutroux_elliptic import solve_boutroux
from pvrh.errors import (
    ConditionMismatch,
    IntegerTheta,
    NonUniqueFiber,
    NotPiMultiple,
    ThetaViolation,
    UnmappedRegion,
)
from pvrh.mono_core import (
    Mat2C,
    MonodromyPair,
    ThetaTriple,
    monodromy_shift,
    stokes_hat,
    validate_pair,
)
from pvrh.rh_dispatch import (
    continuation_plan,
    example_22_coefficient,
    region_emptiness,
    solve_rh,
    theta_conditions,
)

from support import (
    THETA_DESK,
    doubly_truncated_pair,
    pair_diff,
    r2_0_pair,
    r2_1_pair,
    random_valid_pair,
)


def test_theta_conditions_generic_triple():
    rep = theta_conditions(THETA_DESK)
    assert rep.all_hold()
    assert not any(rep.integer_flags[k] for k in
                   ("theta0_int", "theta1_int", "thetaInf_int"))


def test_theta_conditions_detect_resonances():
    # theta0 - theta1 - thetaInf = 2 breaks the first condition
    rep = theta_conditions(ThetaTriple(1.4, -0.5, -0.1))
    assert not rep.cond1 and not rep.all_hold()
    flags = theta_conditions(ThetaTriple(1.0, 0.2, 0.3)).integer_flags
    assert flags["theta0_int"] and flags["theta0_posnat"]
    # thetaInf - theta0 - theta1 lands in 2Z, the resonant-family parity
    assert theta_conditions(ThetaTriple(0.3, 0.2, 0.5)) \
        .integer_flags["parity_r5"]


def test_region_emptiness_table():
    out = region_emptiness(ThetaTriple(0.3, -0.5, 0.2))
    assert out["empty"]["R3plus"] is True
    assert "resonant" in out["note"]
    clear = region_emptiness(THETA_DESK)
    assert not any(clear["empty"].values())
    with pytest.raises(IntegerTheta):
        region_emptiness(ThetaTriple(1.0, 0.2, 0.3))


# Each generic variant, its sign region, its number k (condition k and
# resonant case k), and the theta combinations (signs of theta0, theta1,
# thetaInf) of the two resonant branches: c = 2 nu on the first, c = 2 - 2 nu
# on the second.
_FAMILY_ROWS = {
    "Trunc00": ("R3plus", 1, (1, -1, -1), (1, 1, 1)),
    "Trunc01": ("R4minus", 2, (-1, 1, 1), (1, 1, -1)),
    "TruncInf0": ("R3minus", 3, (1, 1, -1), (1, -1, 1)),
    "TruncInf1": ("R4plus", 4, (1, 1, 1), (-1, 1, -1)),
}


def _theta_with(signs, value, t1, ti):
    """The triple with the given theta1, thetaInf whose combination is value."""
    s0, s1, si = signs
    return ThetaTriple(s0 * (value - s1 * t1 - si * ti), t1, ti)


def _gauged(pair, g):
    def move(m):
        return Mat2C(m.m11, m.m12 / g, m.m21 * g, m.m22)
    return MonodromyPair(move(pair.m0), move(pair.m1), pair.theta)


@pytest.mark.parametrize("variant", list(_FAMILY_ROWS))
def test_near_resonance_gets_one_answer(variant):
    # 5e-11 off an even integer is resonant for every entry point; 2e-9 off,
    # or 1e-6 off in the imaginary part, generic for every entry point
    region, case, first, second = _FAMILY_ROWS[variant]
    c0, ut = 0.7 + 0.3j, 1.1 - 0.2j
    for branch, nu, signs in (("first", 1, first), ("second", 2, second)):
        target = 2 * nu if branch == "first" else 2 - 2 * nu
        for offset, resonant in ((5e-11, True), (2e-9, False),
                                 (1e-6j, False)):
            theta = _theta_with(signs, target + offset, 0.2, 0.1)
            rep = theta_conditions(theta)
            assert getattr(rep, f"cond{case}") is not resonant, (branch, offset)
            assert region_emptiness(theta)["empty"][region] is resonant
            if resonant:
                with pytest.raises(ThetaViolation):
                    build_trunc_family(variant, c0, theta, ut)
                pair, _ = build_trunc_nongeneric(case, branch, nu, c0, theta, ut)
                d = solve_rh(pair, 0.2, zero_tol=1e-11)
                assert (d.variant, d.case, d.nu) == ("NonGeneric", case, nu)
            else:
                with pytest.raises(ConditionMismatch):
                    build_trunc_nongeneric(case, branch, nu, c0, theta, ut)
                pair, _ = build_trunc_family(variant, c0, theta, ut)
                d = solve_rh(pair, 0.2, zero_tol=1e-11)
                assert d.variant == variant
            assert abs(d.params["c0"] - c0) < 1e-9 * abs(c0)


def test_exact_theta_gets_one_answer():
    # theta0 - theta1 - thetaInf = 2 exactly; off it, the mismatch is
    # reported for Fraction input too
    on = ThetaTriple(Fraction(12, 5), Fraction(1, 5), Fraction(1, 5))
    assert not theta_conditions(on).cond1
    assert region_emptiness(on)["empty"]["R3plus"]
    with pytest.raises(ThetaViolation):
        build_trunc_family("Trunc00", 1.0, on, 1.0)
    pair, _ = build_trunc_nongeneric(1, "first", 1, 0.5, on, 1.0)
    d = solve_rh(pair, 0.2, zero_tol=1e-11)
    assert (d.variant, d.case, d.nu) == ("NonGeneric", 1, 1)
    off = ThetaTriple(Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    with pytest.raises(ConditionMismatch):
        build_trunc_nongeneric(1, "first", 1, 0.5, off, 1.0)


_RESONANT_BRANCHES = [("first", 1), ("first", 2), ("first", 3),
                      ("second", 2), ("second", 3)]


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(list(_FAMILY_ROWS)),
    resonance=st.sampled_from([None] + _RESONANT_BRANCHES),
    signs=st.tuples(*[st.sampled_from((1, -1))] * 3),
    sizes=st.tuples(st.floats(min_value=0.66, max_value=0.95),
                    st.floats(min_value=0.25, max_value=0.45),
                    st.floats(min_value=0.05, max_value=0.15)),
    c0_polar=st.tuples(st.floats(min_value=0.5, max_value=2.0),
                       st.floats(min_value=-math.pi, max_value=math.pi)),
    ut_polar=st.tuples(st.floats(min_value=0.5, max_value=2.0),
                       st.floats(min_value=-math.pi, max_value=math.pi)),
    gauge=st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0),
)
def test_family_table_roundtrip(variant, resonance, signs, sizes, c0_polar,
                                ut_polar, gauge):
    # |theta0| in [0.66, 0.95] and |theta1| + |thetaInf| <= 0.6 keep every
    # combination at least 0.06 from 0 and below 2 in size; on a resonant
    # branch theta0 is solved for, and it and theta1 stay at least 0.1 off
    # the integers, the other combinations 0.1 off the even integers
    _, case, first, second = _FAMILY_ROWS[variant]
    c0 = cmath.rect(*c0_polar)
    ut = cmath.rect(*ut_polar)
    t0, t1, ti = (s * size for s, size in zip(signs, sizes))
    if resonance is None:
        theta = ThetaTriple(t0, t1, ti)
        pair, _ = build_trunc_family(variant, c0, theta, ut)
        d = solve_rh(pair, 0.2, zero_tol=1e-11)
        assert (d.variant, d.case, d.nu) == (variant, 0, 0)
        moved = recover_c0(variant, _gauged(pair, gauge))
    else:
        branch, nu = resonance
        combo, target = (first, 2 * nu) if branch == "first" \
            else (second, 2 - 2 * nu)
        theta = _theta_with(combo, target, t1, ti)
        pair, _ = build_trunc_nongeneric(case, branch, nu, c0, theta, ut)
        d = solve_rh(pair, 0.2, zero_tol=1e-11)
        assert (d.variant, d.case, d.nu) == ("NonGeneric", case, nu)
        moved = recover_c0_nongeneric(case, branch, nu, _gauged(pair, gauge))
    assert validate_pair(pair.m0, pair.m1, theta, tol=1e-10).ok
    assert abs(d.params["c0"] - c0) < 1e-9 * abs(c0)
    assert abs(moved - d.params["c0"]) < 1e-9 * abs(c0)


def test_solve_rh_oscillatory_on_the_axis(rng):
    pair = random_valid_pair(rng)
    d = solve_rh(pair, 0.0)
    assert d.variant == "Trig"
    assert {"beta0", "vhat"} <= set(d.params)


def test_solve_rh_elliptic_off_axis(rng):
    pair = random_valid_pair(rng)
    phi = 0.7
    d = solve_rh(pair, phi)
    assert d.variant == "Elliptic"
    sol = solve_boutroux(phi)
    assert abs(d.params["A"] - sol.A) < 1e-14
    assert abs(d.params["x0"] - phase_shift_x0(pair, phi, sol)) < 1e-12
    assert d.sector == (0.0, 0.5 * math.pi)


def test_solve_rh_sector_argument_guard(rng):
    pair = random_valid_pair(rng)
    with pytest.raises(ValueError):
        solve_rh(pair, 0.5 * math.pi)


def test_solve_rh_corner_regions():
    d = solve_rh(doubly_truncated_pair(THETA_DESK), 0.3)
    assert d.variant == "DoublyTruncAK"
    assert d.sector == (-math.pi, math.pi)

    one_sided = solve_rh(r2_0_pair(), 0.4)
    assert one_sided.variant == "TruncAK"
    assert one_sided.params["direction"].real == 1.0
    assert solve_rh(r2_0_pair(), -0.4).variant == "Elliptic"

    mirror = solve_rh(r2_1_pair(), -0.4)
    assert mirror.variant == "TruncAK"
    assert mirror.params["direction"].real == -1.0
    assert solve_rh(r2_1_pair(), 0.4).variant == "Elliptic"


def test_solve_rh_truncated_roundtrip(rng):
    c0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    for variant in ("Trunc00", "Trunc01", "TruncInf0", "TruncInf1"):
        pair, built = build_trunc_family(variant, c0, THETA_DESK, 1.0)
        d = solve_rh(pair, 0.2, zero_tol=1e-11)
        assert d.variant == variant
        assert abs(d.params["c0"] - c0) < 1e-9
        assert d.params["mu"] == built.params["mu"]


def test_solve_rh_resonant_roundtrip():
    theta = ThetaTriple(1.2, -0.5, -0.3)
    pair, _ = build_trunc_nongeneric(1, "first", 1, 0.8 - 0.4j, theta, 1.0)
    d = solve_rh(pair, 0.1, zero_tol=1e-11)
    assert d.variant == "NonGeneric"
    assert d.case == 1 and d.nu == 1
    assert abs(d.params["c0"] - (0.8 - 0.4j)) < 1e-8


def test_solve_rh_rejects_identity_matrix():
    t0, ti = 0.3, 0.15
    w = cmath.exp(-1j * math.pi * ti)
    tr0 = 2.0 * math.cos(math.pi * t0)
    b = 1.0
    c = (w * (tr0 - w) - 1.0) / b
    m0 = Mat2C(w, b, c, tr0 - w)
    pair = MonodromyPair(m0, Mat2C(1.0, 0.0, 0.0, 1.0),
                         ThetaTriple(t0, 0.0, ti))
    rep = validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-12)
    assert rep.ok, rep.residuals
    with pytest.raises(NonUniqueFiber):
        solve_rh(pair, 0.1)


def test_solve_rh_merged_labels_unmapped():
    # integer theta1 merges the sign labels; both matrices stay away from
    # +-identity so the fiber guard does not fire first
    pair = MonodromyPair(Mat2C(1.0, 0.0, 1.0, 1.0),
                         Mat2C(1.0, 0.0, 0.5, 1.0),
                         ThetaTriple(0.0, 0.0, 0.0))
    rep = validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-12)
    assert rep.ok, rep.residuals
    with pytest.raises(UnmappedRegion):
        solve_rh(pair, 0.1)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_dispatch_r5_invisible_constant_is_not_unique(case):
    # on the second branch at nu = 1 the fixed off-entry carries
    # 1/Gamma(nu - 1) = 0: the diagonals match the signature, but c0 cannot
    # be read back
    a, ti = 0.31, -0.17
    theta = {1: ThetaTriple(-a - ti, a, ti), 2: ThetaTriple(a, -a + ti, ti),
             3: ThetaTriple(a - ti, a, ti), 4: ThetaTriple(a, a + ti, ti)}[case]
    pair, _ = build_trunc_nongeneric(case, "second", 1, 0.8 - 0.4j, theta, 1.0)
    assert validate_pair(pair.m0, pair.m1, theta, tol=1e-12).ok
    with pytest.raises(NonUniqueFiber, match="invisible"):
        solve_rh(pair, 0.1, zero_tol=1e-11)


def test_dispatch_r5_without_a_resonant_signature_is_unmapped():
    # a triangular (R5) pair whose diagonals e^{-i pi theta0}, e^{i pi theta1}
    # match no resonant family's
    t0, t1 = 0.23, -0.31
    a = cmath.exp(-1j * math.pi * t0)
    b = cmath.exp(1j * math.pi * t1)
    pair = MonodromyPair(Mat2C(a, 0.7 + 0.2j, 0.0, 1.0 / a),
                         Mat2C(b, 0.0, -0.4 + 0.9j, 1.0 / b),
                         ThetaTriple(t0, t1, t0 - t1))
    assert validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-12).ok
    with pytest.raises(UnmappedRegion, match="no resonant-family signature"):
        solve_rh(pair, 0.1)


def test_continuation_plan_step_shapes(rng):
    pair = random_valid_pair(rng)
    full = continuation_plan(pair, 0.0, 2.0 * math.pi)
    assert full.steps == ("m",)
    assert full.thetaInf_sign == 1 and not full.reciprocal
    assert pair_diff(full.resulting, monodromy_shift(pair, 1)) == 0.0

    half = continuation_plan(pair, 0.0, math.pi)
    assert half.steps == ("s0",)
    assert half.thetaInf_sign == -1 and half.reciprocal

    back = continuation_plan(pair, 0.0, -math.pi)
    assert back.steps == ("s1",)

    turn_and_half = continuation_plan(pair, 0.0, 3.0 * math.pi)
    assert turn_and_half.steps == ("m", "s0")

    reverse = continuation_plan(pair, 0.0, -2.0 * math.pi)
    assert reverse.steps == ("m_inv",)
    assert pair_diff(reverse.resulting, monodromy_shift(pair, -1)) == 0.0

    with pytest.raises(NotPiMultiple):
        continuation_plan(pair, 0.0, 1.3)


def test_continuation_sheet_bookkeeping(rng):
    pair = random_valid_pair(rng)
    plan = continuation_plan(pair, 0.3, 0.3 + math.pi)
    lo, hi = plan.end_sheet
    assert abs(lo - (0.3 + 0.5 * math.pi)) < 1e-12
    assert abs(hi - (0.3 + 1.5 * math.pi)) < 1e-12


def test_continuation_elliptic_attachment(rng):
    pair = random_valid_pair(rng)
    quarter = continuation_plan(pair, 0.7, 0.7 + 2.0 * math.pi)
    assert quarter.elliptic is not None
    assert quarter.elliptic["route"] == "x0"
    sol = solve_boutroux(0.7)
    shifted = monodromy_shift(pair, 1)
    assert abs(quarter.elliptic["x0"]
               - phase_shift_x0(shifted, 0.7, sol)) < 1e-10
    # the family of the rotated pair on the target pulled back by pi-steps
    assert quarter.descriptor == solve_rh(quarter.resulting,
                                          0.7 + 2.0 * math.pi - 2.0 * math.pi)

    none_at_axis = continuation_plan(pair, 0.0, math.pi)
    assert none_at_axis.elliptic is None


def test_continuation_flipped_route_matches_breve(rng):
    # on the upper-left rays the attachment is the breve phase shift; the
    # flipped formula, the direct shift of the twisted pair on the opposite
    # ray, must agree with it modulo the doubled period lattice
    pair = random_valid_pair(rng)
    phi = 0.7 + math.pi
    plan = continuation_plan(pair, 0.7, phi)
    assert plan.elliptic is not None and plan.elliptic["route"] == "breve"
    sol = solve_boutroux(phi)
    assert plan.elliptic["x0"] == phase_shift_breve(pair, phi, sol)
    flipped = -phase_shift_x0(stokes_hat(pair), phi - math.pi,
                              solve_boutroux(phi - math.pi))
    gap = reduce_mod_lattice(plan.elliptic["x0"] - flipped,
                             2.0 * sol.omegaA, 2.0 * sol.omegaB)
    assert abs(gap) < 1e-9


def test_quarter_turn_coefficient_chain(rng):
    # the function cross-checks its closed form against the twisted-pair
    # derivation internally and raises on disagreement
    frozen = 1 + 0.49665330563000804j
    assert abs(example_22_coefficient(THETA_DESK, 1.0) - frozen) < 1e-12
    for _ in range(10):
        theta = ThetaTriple(rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45),
                            rng.uniform(-0.45, -0.05))
        c0 = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        out = example_22_coefficient(theta, c0)
        jump = example_22_coefficient(theta, 0.0)
        assert abs((out - c0) - jump) < 1e-10
