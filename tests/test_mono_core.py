import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvrh.asymptotics import build_trunc_family
from pvrh.errors import AmbiguousSign, WrongFamily
from pvrh.mono_core import (
    FamilyElement,
    Mat2C,
    MonodromyPair,
    StokesMatrices,
    ThetaTriple,
    apply_operator,
    classify_region,
    gauge_normalize,
    monodromy_shift,
    pair_from_json_obj,
    pair_to_json_obj,
    product_from_stokes,
    stokes_from_pair,
    stokes_check,
    stokes_hat,
    u_p_matrix,
    validate_pair,
)

from support import (
    THETA_DESK,
    doubly_truncated_pair,
    max_entry_diff,
    pair_diff,
    r2_0_pair,
    r2_1_pair,
    random_valid_pair,
)


def test_validate_pair_accepts_factorized_samples(rng):
    for _ in range(50):
        pair = random_valid_pair(rng)
        rep = validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-12)
        assert rep.ok, rep.residuals


def test_validate_pair_flags_broken_entries(rng):
    pair = random_valid_pair(rng)
    bad = Mat2C(pair.m0.m11 + 0.01, pair.m0.m12, pair.m0.m21, pair.m0.m22)
    rep = validate_pair(bad, pair.m1, pair.theta, tol=1e-9)
    assert not rep.ok
    assert rep.residuals["det_m0"] > 1e-9 or rep.residuals["trace_m0"] > 1e-9


def test_validate_pair_rejects_nonfinite():
    m = Mat2C(complex("nan"), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        validate_pair(m, Mat2C(1.0, 0.0, 0.0, 1.0), THETA_DESK)


def test_gauge_normalize_pins_cascade_entry(rng):
    for _ in range(25):
        pair = random_valid_pair(rng)
        form = gauge_normalize(pair)
        assert abs(form.m0.m21 - 1.0) < 1e-14
        again = gauge_normalize(form)
        assert pair_diff(again, form) < 1e-14


def test_gauge_normalize_keeps_invariants(rng):
    pair = random_valid_pair(rng)
    norm = gauge_normalize(pair)
    assert abs(norm.m0.m11 - pair.m0.m11) < 1e-14
    assert abs(norm.m1.m22 - pair.m1.m22) < 1e-14
    assert abs(norm.m0.m21 * norm.m1.m12 - pair.m0.m21 * pair.m1.m12) < 1e-13
    rep = validate_pair(norm.m0, norm.m1, norm.theta, tol=1e-11)
    assert rep.ok, rep.residuals


def test_gauge_normalize_fixed_point_when_diagonal():
    theta = ThetaTriple(0.25, 0.25, 0.5)
    m0 = Mat2C(cmath.exp(-0.25j * math.pi), 0.3, 0.0,
               cmath.exp(0.25j * math.pi))
    form = gauge_normalize(MonodromyPair(m0, m0, theta))
    assert abs(form.m0.m12 - 1.0) < 1e-15


# region classification, one constructed pair per zero pattern

def _r3_minus_pair():
    t0, t1, ti = 0.3, 0.2, 0.15
    w = cmath.exp(-1j * math.pi * ti)
    m1 = Mat2C(cmath.exp(-1j * math.pi * t1), 0.0, 0.9 + 0.2j,
               cmath.exp(1j * math.pi * t1))
    m0_11 = w / m1.m11
    m0_22 = 2.0 * math.cos(math.pi * t0) - m0_11
    m0_21 = 1.3 + 0.1j
    m0 = Mat2C(m0_11, (m0_11 * m0_22 - 1.0) / m0_21, m0_21, m0_22)
    return MonodromyPair(m0, m1, ThetaTriple(t0, t1, ti))


def _r4_pair(sign):
    t0, t1, ti = 0.3, 0.2, 0.15
    w = cmath.exp(-1j * math.pi * ti)
    m0_11 = cmath.exp(sign * 1j * math.pi * t0)
    m0 = Mat2C(m0_11, 0.45 - 0.6j, 0.0, cmath.exp(-sign * 1j * math.pi * t0))
    m1_11 = w / m0_11
    m1_22 = 2.0 * math.cos(math.pi * t1) - m1_11
    m1_12 = 0.8 - 0.25j
    m1 = Mat2C(m1_11, m1_12, (m1_11 * m1_22 - 1.0) / m1_12, m1_22)
    return MonodromyPair(m0, m1, ThetaTriple(t0, t1, ti))


def _r5_pair():
    t0, t1 = 0.3, 0.2
    theta = ThetaTriple(t0, t1, t0 + t1)
    m0 = Mat2C(cmath.exp(-1j * math.pi * t0), 0.37 + 0.11j, 0.0,
               cmath.exp(1j * math.pi * t0))
    m1 = Mat2C(cmath.exp(-1j * math.pi * t1), 0.0, -0.52 + 0.4j,
               cmath.exp(1j * math.pi * t1))
    return MonodromyPair(m0, m1, theta)


def test_classify_generic_pair(rng):
    region = classify_region(random_valid_pair(rng))
    assert region.tag == "R1"
    assert set(region.coords) == {"m0_11", "m0_21m1_12"}


def test_classify_corner_regions():
    assert classify_region(doubly_truncated_pair(THETA_DESK)).tag == "R2_01"
    r20 = classify_region(r2_0_pair())
    assert r20.tag == "R2_0" and set(r20.coords) == {"m0_11"}
    r21 = classify_region(r2_1_pair())
    assert r21.tag == "R2_1" and set(r21.coords) == {"m1_11"}


def test_classify_triangular_regions():
    pair, _ = build_trunc_family("Trunc00", 0.8 + 0.1j, THETA_DESK, 1.0)
    rep = validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-12)
    assert rep.ok, rep.residuals
    r3 = classify_region(pair, zero_tol=1e-12)
    assert r3.tag == "R3plus" and set(r3.coords) == {"m1_21/m0_21"}

    assert classify_region(_r3_minus_pair()).tag == "R3minus"
    assert classify_region(_r4_pair(+1)).tag == "R4plus"
    assert classify_region(_r4_pair(-1)).tag == "R4minus"

    r5 = classify_region(_r5_pair())
    assert r5.tag == "R5" and set(r5.coords) == {"m0_12m1_21"}


def test_classify_merged_label_for_integer_theta():
    pair = MonodromyPair(Mat2C(1.0, 0.0, 1.0, 1.0),
                         Mat2C(1.0, 0.0, 0.0, 1.0),
                         ThetaTriple(0.0, 0.0, 0.0))
    assert classify_region(pair).tag == "R3"


def test_classify_rejects_unmatched_diagonal():
    base = _r3_minus_pair()
    skewed = MonodromyPair(base.m0, base.m1,
                           ThetaTriple(0.3, 0.41, 0.15))
    with pytest.raises(AmbiguousSign):
        classify_region(skewed)


def test_classify_constructions_sit_on_manifold():
    for pair in (r2_0_pair(), r2_1_pair(), _r3_minus_pair(),
                 _r4_pair(+1), _r4_pair(-1), _r5_pair()):
        rep = validate_pair(pair.m0, pair.m1, pair.theta, tol=1e-13)
        assert rep.ok, rep.residuals


def test_stokes_factor_twist_relation():
    stokes = StokesMatrices(0.4 - 0.2j, 0.1 + 0.3j, 0.2)
    w = cmath.exp(2j * math.pi * 0.2)
    assert abs(stokes.matrix(3).m21 - stokes.s1 / w) < 1e-15
    assert abs(stokes.matrix(4).m12 - stokes.s2 * w) < 1e-15
    assert stokes.matrix(1).m12 == 0.0 and stokes.matrix(2).m21 == 0.0


def test_stokes_roundtrip_and_zero_index(rng):
    for _ in range(25):
        pair = random_valid_pair(rng)
        stokes = stokes_from_pair(pair)
        assert max_entry_diff(product_from_stokes(stokes),
                              pair.product()) < 1e-12
        ident = u_p_matrix(stokes, 0)
        assert max_entry_diff(ident, Mat2C(1.0, 0.0, 0.0, 1.0)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=-3, max_value=3),
       q=st.integers(min_value=-3, max_value=3))
def test_shift_composes_additively(p, q):
    import random as _random
    pair = random_valid_pair(_random.Random(7), s_bound=0.5)
    once = monodromy_shift(monodromy_shift(pair, p), q)
    both = monodromy_shift(pair, p + q)
    assert pair_diff(once, both) < 1e-10


def test_shift_zero_is_identity(rng):
    pair = random_valid_pair(rng)
    assert pair_diff(monodromy_shift(pair, 0), pair) == 0.0


def test_twist_images_land_on_negated_manifold(rng):
    for _ in range(25):
        pair = random_valid_pair(rng)
        hat = stokes_hat(pair)
        rep = validate_pair(hat.m0, hat.m1, hat.theta, tol=1e-10)
        assert rep.ok, rep.residuals
        assert hat.theta.thetaInf == -pair.theta.thetaInf


def test_twist_image_half_integer_example():
    theta = ThetaTriple(0.5, 0.5, 1.0)
    rot = Mat2C(0.0, 1.0, -1.0, 0.0)
    pair = MonodromyPair(rot, rot, theta)
    hat = stokes_hat(pair)
    assert max_entry_diff(hat.m0, rot) < 1e-12
    assert max_entry_diff(hat.m1, rot) < 1e-12


def test_apply_operator_rejects_wrong_family(rng):
    pair = random_valid_pair(rng)
    elem = FamilyElement(pair, 0, "plain")
    with pytest.raises(WrongFamily):
        apply_operator("shat0", elem, pair)
    hat = apply_operator("s0", elem, pair)
    with pytest.raises(WrongFamily):
        apply_operator("m", hat, pair)
    with pytest.raises(WrongFamily):
        apply_operator("m_inv", hat, pair)


def test_operator_index_bookkeeping(rng):
    pair = random_valid_pair(rng)
    elem = FamilyElement(pair, 2, "plain")
    assert apply_operator("m", elem, pair).index == 3
    assert apply_operator("m_inv", elem, pair).index == 1
    assert apply_operator("s0", elem, pair).index == 2
    assert apply_operator("s1", elem, pair).index == 1
    hat = apply_operator("s0", elem, pair)
    assert apply_operator("shat0", hat, pair).index == 2
    assert apply_operator("shat1", hat, pair).index == 3


def _written_out_twists(base):
    # T1 = sigma1 e^{i pi thetaInf sigma3 / 2} S1 and
    # T2 = S2 e^{i pi thetaInf sigma3 / 2} sigma1, from the base's Stokes data
    stokes = stokes_from_pair(base)
    half = cmath.exp(0.5j * cmath.pi * base.theta.thetaInf)
    h = Mat2C(half, 0.0, 0.0, 1.0 / half)
    sigma1 = Mat2C(0.0, 1.0, 1.0, 0.0)
    t1 = sigma1 @ h @ Mat2C(1.0, 0.0, stokes.s1, 1.0)
    t2 = Mat2C(1.0, stokes.s2, 0.0, 1.0) @ h @ sigma1
    return t1, t2


def _conjugated(pair, g, gi):
    return MonodromyPair(g @ pair.m0 @ gi, g @ pair.m1 @ gi,
                         pair.theta.negate_inf())


@pytest.mark.parametrize("tag, family", [("s0", "plain"), ("s1", "plain"),
                                         ("shat0", "hat"), ("shat1", "hat")])
def test_stokes_operator_is_its_twist_conjugation(rng, tag, family):
    for _ in range(10):
        pair, base = random_valid_pair(rng), random_valid_pair(rng)
        t1, t2 = _written_out_twists(base)
        expected = {"s0": (t2.inv(), t2), "s1": (t1, t1.inv()),
                    "shat0": (t2, t2.inv()), "shat1": (t1.inv(), t1)}[tag]
        image = apply_operator(tag, FamilyElement(pair, 0, family), base).pair
        assert pair_diff(image, _conjugated(pair, *expected)) \
            < 1e-13 * pair.norm_inf() * base.norm_inf() ** 2
        assert image.theta == pair.theta.negate_inf()


def test_twists_are_s0_and_s1_at_their_own_base(rng):
    for _ in range(25):
        pair = random_valid_pair(rng)
        elem = FamilyElement(pair, 0, "plain")
        for twist, tag in ((stokes_hat, "s0"), (stokes_check, "s1")):
            assert pair_diff(twist(pair),
                             apply_operator(tag, elem, pair).pair) < 1e-13
        # stokes_hat as the row-flipped conjugation by S2 and the half twist
        s2 = stokes_from_pair(pair).matrix(2)
        half = cmath.exp(-0.5j * cmath.pi * pair.theta.thetaInf)
        g = Mat2C(half, 0.0, 0.0, 1.0 / half) @ s2.inv()
        flipped = _conjugated(pair, g, g.inv())
        hat = stokes_hat(pair)
        for got, ref in ((hat.m0, flipped.m0), (hat.m1, flipped.m1)):
            assert max_entry_diff(got, Mat2C(ref.m22, ref.m21, ref.m12,
                                             ref.m11)) < 1e-13


def test_pair_json_roundtrip(rng):
    pair = random_valid_pair(rng)
    back = pair_from_json_obj(pair_to_json_obj(pair))
    assert pair_diff(back, pair) == 0.0
    assert back.theta == pair.theta


def test_pair_json_missing_key():
    with pytest.raises((KeyError, TypeError)):
        pair_from_json_obj({"theta": [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]})
