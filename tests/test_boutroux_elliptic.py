import cmath
import math
import random
import sys
import types

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvrh import boutroux_elliptic
from pvrh.asymptotics import AsymptoticDescriptor, eval_elliptic
from pvrh.boutroux_elliptic import (
    curve_w_plus,
    cycle_integral,
    jacobi_sn,
    pole_lattice,
    reduce_mod_lattice,
    sn_cn_dn,
    sn_derivative,
    solve_boutroux,
)
from pvrh.errors import (DegenerateCurve, DegenerateLattice, DomainViolation,
                         InsidePoleDisk, NearPole, NoConvergence)

from support import THETA_DESK, cycle_integral_reference, sn_cn_dn_reference

# frozen regression value for the modulus at phi = 0.7 (quadrature path
# dependent in the last two digits, hence the 1e-13 pin)
A_AT_07 = 0.40798753519568737 + 0.42234753613119114j


def test_modulus_regression_value():
    assert abs(solve_boutroux(0.7).A - A_AT_07) < 1e-13


def test_solution_reports_small_residuals():
    for phi in (0.2, 0.7, 1.2):
        sol = solve_boutroux(phi)
        assert max(sol.residuals) < 1e-10
        assert sol.quadrature_error < 1e-9


def test_modulus_sweep_residuals_and_legendre_defect():
    for i in range(1, 401):
        phi = 0.5 * math.pi * i / 401.0
        sol = solve_boutroux(phi)
        assert max(abs(r) for r in sol.residuals) < 1e-12, phi
        assert sol.quadrature_error < 1e-13, phi
        assert 0.0 <= sol.A.real <= 1.0, phi


def test_solution_cache_is_bounded():
    maxsize = boutroux_elliptic._solve_rounded.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_periods_match_complete_elliptic_integrals():
    for phi in (0.3, 0.7, 1.1):
        sol = solve_boutroux(phi)
        ka = complex(mpmath.ellipk(sol.A))
        kb = complex(mpmath.ellipk(1.0 - sol.A))
        assert abs(sol.omegaA - 4.0 * ka) < 1e-12 * abs(sol.omegaA)
        assert abs(sol.omegaB - 2j * kb) < 1e-12 * abs(sol.omegaB)


def test_degenerate_ends_report_infinite_period():
    at0 = solve_boutroux(0.0)
    assert at0.A == 0.0 and at0.omegaB is None
    assert abs(at0.omegaA - 2.0 * math.pi) < 1e-15
    at90 = solve_boutroux(0.5 * math.pi)
    assert at90.A == 1.0 and at90.omegaA is None
    assert abs(at90.omegaB - 1j * math.pi) < 1e-15


def test_pi_periodicity_in_phi():
    a = solve_boutroux(0.4).A
    b = solve_boutroux(0.4 + math.pi).A
    assert abs(a - b) < 1e-12


def test_cycle_integral_input_checks():
    with pytest.raises(ValueError):
        cycle_integral(0.3 + 0.1j, "volume", "a")
    with pytest.raises(ValueError):
        cycle_integral(0.3 + 0.1j, "period", "c")
    with pytest.raises(DegenerateCurve):
        cycle_integral(1e-14, "period", "a")
    with pytest.raises(DegenerateCurve):
        cycle_integral(1.0 + 1e-14j, "period", "b")


def test_cycle_integral_matches_legendre_form():
    a = 0.37 + 0.21j
    got = cycle_integral(a, "period", "a")
    assert abs(got - 4.0 * complex(mpmath.ellipk(a))) < 1e-12


# spread over the strip, with |A| and |1 - A| near 0.02 at its two ends
STRIP_MODULI = (0.015 + 0.013j, 0.1 + 0.2j, 0.3 - 0.25j, 0.41 + 0.42j,
                0.5 + 0.05j, 0.7 - 0.4j, 0.9 + 0.2j, 0.985 + 0.013j)


@pytest.mark.parametrize("tag", ["period", "boutroux"])
@pytest.mark.parametrize("cycle", ["a", "b"])
def test_cycle_integral_matches_quadrature_reference(tag, cycle):
    for a in STRIP_MODULI:
        got = cycle_integral(a, tag, cycle)
        ref = cycle_integral_reference(a, tag, cycle)
        assert abs(got - ref) < 1e-12 * abs(ref), a


def test_cycle_integral_degenerate_closed_forms():
    with pytest.raises(DegenerateCurve):
        cycle_integral(0.0, "boutroux", "b")
    with pytest.raises(DegenerateCurve):
        cycle_integral(1.0, "boutroux", "a")


def test_curve_branch_values():
    a = 0.4 + 0.3j
    w0 = curve_w_plus(a, 0.0)
    assert abs(w0 - cmath.sqrt(a)) < 1e-14
    # quartic curve, so w behaves like -z^2 far from the cuts
    z = 4000.0
    assert abs(curve_w_plus(a, z) / (z * z) + 1.0) < 1e-5
    # branch points of both cuts are zeros of the curve
    assert abs(curve_w_plus(a, cmath.sqrt(a))) < 1e-7


def test_sn_is_odd_and_fixes_origin(rng):
    for _ in range(25):
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
        k = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
        assert abs(jacobi_sn(u, k) + jacobi_sn(-u, k)) < 1e-12
    assert jacobi_sn(0.0, 0.3 + 0.2j) == 0.0


def test_sn_quarter_and_full_periods():
    k = cmath.sqrt(A_AT_07)
    if k.real < 0:
        k = -k
    m = k * k
    big_k = complex(mpmath.ellipk(m))
    big_kp = complex(mpmath.ellipk(1.0 - m))
    assert abs(jacobi_sn(big_k, k) - 1.0) < 1e-12
    u = 0.31 - 0.12j
    base = jacobi_sn(u, k)
    assert abs(jacobi_sn(u + 4.0 * big_k, k) - base) < 1e-10
    assert abs(jacobi_sn(u + 2j * big_kp, k) - base) < 1e-10


def test_complete_ke_matches_mpmath():
    # principal branch: a grid over [-3, 3]^2 off the cut m in [1, oo),
    # both sides of that cut and the negative real axis
    grid = [complex(0.5 * i, 0.5 * j) for i in range(-6, 7)
            for j in range(-6, 7) if j != 0 or i < 2]
    grid += [complex(r, side * 1e-12) for r in (1.01, 1.5, 2.0, 2.5, 3.0)
             for side in (1, -1)]
    grid += [complex(-r, 0.0) for r in (0.1, 1.0, 2.0, 3.0)]
    with mpmath.workdps(30):
        for m in grid:
            big_k, big_e = boutroux_elliptic._complete_ke(m)
            ref_k = complex(mpmath.ellipk(m))
            ref_e = complex(mpmath.ellipe(m))
            assert abs(big_k - ref_k) <= 1e-14 * abs(ref_k), m
            assert abs(big_e - ref_e) <= 1e-14 * abs(ref_e), m
    # K diverges at m = 1, where E = 1
    assert boutroux_elliptic._complete_ke(1.0) == (complex(math.inf), 1.0)


def test_agm_matches_mpmath():
    rng = random.Random(7)
    with mpmath.workdps(30):
        for _ in range(200):
            a = complex(rng.uniform(0.01, 2.0), rng.uniform(-1.0, 1.0))
            b = complex(rng.uniform(0.01, 2.0), rng.uniform(-1.0, 1.0))
            ref = complex(mpmath.agm(a, b))
            got = boutroux_elliptic._agm(a, b)
            assert abs(got - ref) <= 8.0 * sys.float_info.epsilon * abs(ref)


# the fixed elliptic directions of the ray_table benchmark workload
RAY_TABLE_PHIS = tuple((-1) ** j * (0.05 + 1.45 * (j + 0.5) / 6.0)
                       for j in range(6))


def _sn_modulus(phi):
    """k = sqrt(A_phi) with Re k >= 0, as `eval_elliptic` takes it."""
    k = cmath.sqrt(solve_boutroux(phi).A)
    return -k if k.real < 0 else k


def test_agm_square_roots_on_ray_table_moduli(monkeypatch):
    # four of the AGMs on these moduli used to run the whole 64-step budget
    roots = []

    def counted_sqrt(z):
        roots.append(z)
        return cmath.sqrt(z)

    counting = types.SimpleNamespace(sqrt=counted_sqrt)
    for phi in RAY_TABLE_PHIS:
        k = _sn_modulus(phi)
        for b in (cmath.sqrt(1.0 - k * k), k):
            roots.clear()
            with monkeypatch.context() as m:
                m.setattr(boutroux_elliptic, "cmath", counting)
                boutroux_elliptic._agm(1.0, b)
            assert len(roots) <= 8, (phi, b)


def test_theta_quads_match_mpmath(rng):
    moduli = [_sn_modulus(phi) for phi in RAY_TABLE_PHIS]
    moduli += [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
               for _ in range(8)]
    for k in moduli:
        m = boutroux_elliptic._modulus(k, math.copysign(1.0, k.real),
                                       math.copysign(1.0, k.imag))
        assert len(m.half_powers) <= 64 and len(m.square_powers) <= 64
        big_k, big_kp = boutroux_elliptic._quarter_periods(k)
        tau = 1j * big_kp / big_k
        q = cmath.exp(1j * math.pi * tau)
        # v = 2 pi a + pi b tau over the reduced cell, b = +-1/2 its |Im v| edge
        cell = [(a / 4.0, b / 4.0) for a in range(-2, 2) for b in range(-2, 3)]
        cell += [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                 for _ in range(6)]
        for a, b in cell:
            v = 2.0 * math.pi * a + math.pi * b * tau
            got = boutroux_elliptic._theta_quads(v, m.half_powers,
                                                 m.square_powers)
            with mpmath.workdps(30):
                ref = [complex(mpmath.jtheta(n, v, q)) for n in (1, 2, 3, 4)]
            scale = max(abs(r) for r in ref)
            for n, (g, r) in enumerate(zip(got, ref), 1):
                assert abs(g - r) <= 2e-15 * scale, (k, a, b, n)


def test_sn_point_makes_one_exponential(monkeypatch):
    # a cached modulus leaves a point one cmath.exp, for z = e^{iv}
    calls = []

    class Counting:
        def __getattr__(self, name):
            f = getattr(cmath, name)

            def counted(*args):
                calls.append(name)
                return f(*args)
            return counted

    for phi in RAY_TABLE_PHIS:
        k = _sn_modulus(phi)
        sn_cn_dn(0.3 + 0.2j, k)
        for u in (0.0, 1.7 - 2.9j, -13.1 + 6.4j):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(boutroux_elliptic, "cmath", Counting())
                sn_cn_dn(u, k)
            assert calls == ["exp"], (phi, u)


def test_sn_cn_dn_match_mpmath():
    for u, k in ((0.31 - 0.12j, 0.6 + 0.1j), (1.7 + 0.4j, 0.3 - 0.5j),
                 (-0.9 + 0.8j, 0.85 + 0.05j)):
        got = sn_cn_dn(u, k)
        m = k * k
        for name, val in zip(("sn", "cn", "dn"), got):
            ref = complex(mpmath.ellipfun(name, u, m=m))
            assert abs(val - ref) < 1e-12 * max(1.0, abs(ref)), (name, u, k)
        assert jacobi_sn(u, k) == got[0]
        assert sn_derivative(u, k) == got[1] * got[2]


def test_sn_cn_dn_match_mpmath_over_lattice_cells():
    # u + 4K n + 2iK' m for m odd and even: cn and dn change sign under
    # 2iK', so a reduction that drops an odd multiple must flip them
    for k in (0.6 + 0.1j, 0.3 - 0.5j, _sn_modulus(RAY_TABLE_PHIS[2])):
        m = boutroux_elliptic._modulus(k, math.copysign(1.0, k.real),
                                       math.copysign(1.0, k.imag))
        for u0 in (0.31 - 0.12j, -0.9 + 0.8j):
            for n in (-1, 1):
                for j in (-1, 0, 1, 2, 3):
                    u = u0 + n * m.p1 + j * m.p2
                    got = sn_cn_dn(u, k)
                    with mpmath.workdps(20):
                        want = [complex(mpmath.ellipfun(name, u, m=k * k))
                                for name in ("sn", "cn", "dn")]
                    for name, g, w in zip(("sn", "cn", "dn"), got, want):
                        assert abs(g - w) < 1e-12 * max(1.0, abs(w)), \
                            (name, k, u0, n, j)


def _sn_or_error(f, u, k):
    try:
        return f(u, k)
    except (NearPole, NoConvergence) as exc:
        return type(exc), str(exc)


def _pole_neighbourhood(k):
    """60 arguments on and next to the sn poles 2mK + (2n+1)iK'."""
    big_k, big_kp = boutroux_elliptic._quarter_periods(k)
    return [2 * m * big_k + (2 * n + 1) * 1j * big_kp + eps * direction
            for m in (-1, 0, 1) for n in (-1, 0)
            for eps in (0.0, 1e-13, 1e-10, 1e-6, 1e-2)
            for direction in (1.0, cmath.exp(2.0j))]


def test_sn_cn_dn_matches_uncached_reference_exactly(rng):
    moduli = [_sn_modulus(phi) for phi in RAY_TABLE_PHIS]
    moduli += [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
               for _ in range(8)]
    boutroux_elliptic._modulus.cache_clear()
    poles_hit = 0
    for k in moduli:
        args = [complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))
                for _ in range(140)] + _pole_neighbourhood(k)
        for u in args:
            got = _sn_or_error(sn_cn_dn, u, k)
            assert got == _sn_or_error(sn_cn_dn_reference, u, k), (u, k)
            poles_hit += got[0] is NearPole
    assert poles_hit > 0
    info = boutroux_elliptic._modulus.cache_info()
    assert (info.misses, info.currsize) == (len(moduli), len(moduli))


def test_sn_cache_keeps_signed_zero_moduli_apart():
    # -0.5 + 0j == -0.5 - 0j, but the AGM's square root takes them to the
    # two sides of its cut and gives different last bits
    u = 0.3 + 0.2j
    plus, minus = complex(-0.5, 0.0), complex(-0.5, -0.0)
    assert sn_cn_dn_reference(u, plus) != sn_cn_dn_reference(u, minus)
    for k in (plus, minus, plus):
        assert sn_cn_dn(u, k) == sn_cn_dn_reference(u, k)


def test_ray_computes_quarter_periods_once(monkeypatch):
    calls = []
    quarter_periods = boutroux_elliptic._quarter_periods

    def counted(k):
        calls.append(k)
        return quarter_periods(k)

    monkeypatch.setattr(boutroux_elliptic, "_quarter_periods", counted)
    boutroux_elliptic._modulus.cache_clear()
    phi = 0.7
    d = AsymptoticDescriptor(variant="Elliptic",
                             params={"A": solve_boutroux(phi).A, "x0": 0.3 + 0.1j},
                             sector=(0.0, 0.5 * math.pi), theta=THETA_DESK)
    kept = 0
    for i in range(256):
        x = (20.0 + 20.0 * i / 255) * cmath.exp(1j * phi)
        try:
            eval_elliptic(x, d, solve_boutroux(phi))
            kept += 1
        except InsidePoleDisk:
            pass
    assert kept > 200
    assert len(calls) == 1


def test_sn_errors_raise_on_every_call(monkeypatch):
    k = 0.6 + 0.1j
    big_kp = complex(mpmath.ellipk(1.0 - k * k))
    boutroux_elliptic._modulus.cache_clear()
    for _ in range(2):
        with pytest.raises(NearPole):
            sn_cn_dn(1j * big_kp, k)
    info = boutroux_elliptic._modulus.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # no modulus on a grid over |Re k|, |Im k| <= 3 gets |q| that close to
    # 1, so fake its periods: K'/K = 1e-4 gives |q| = e^{-pi 1e-4} > 0.999
    calls = []

    def near_unit_nome(k):
        calls.append(k)
        return 1.0 + 0.0j, 1e-4 + 0.0j

    monkeypatch.setattr(boutroux_elliptic, "_quarter_periods", near_unit_nome)
    for _ in range(2):
        with pytest.raises(NoConvergence):
            sn_cn_dn(0.3, 0.5 + 0.2j)
    assert len(calls) == 2


def test_reduce_mod_lattice_rejects_parallel_generators():
    with pytest.raises(DomainViolation):
        reduce_mod_lattice(0.3 + 0.1j, 2.0 + 1.0j, 4.0 + 2.0j)


def test_sn_pole_raises():
    k = 0.6 + 0.1j
    big_kp = complex(mpmath.ellipk(1.0 - k * k))
    with pytest.raises(NearPole):
        jacobi_sn(1j * big_kp, k)


@settings(max_examples=60, deadline=None)
@given(
    ur=st.floats(min_value=-2.0, max_value=2.0),
    ui=st.floats(min_value=-1.0, max_value=1.0),
    kr=st.floats(min_value=-0.85, max_value=0.85),
    ki=st.floats(min_value=-0.5, max_value=0.5),
)
def test_sn_first_order_identity(ur, ui, kr, ki):
    u = complex(ur, ui)
    k = complex(kr, ki)
    try:
        s = jacobi_sn(u, k)
        sp = sn_derivative(u, k)
    except NearPole:
        return
    if abs(s) > 1e3:
        return
    lhs = sp * sp
    rhs = (1.0 - s * s) * (1.0 - k * k * s * s)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_pole_lattice_enumerates_window():
    sol = solve_boutroux(0.7)
    base = 0.5 + 0.3j
    window = (-40.0, 40.0, -40.0, 40.0)
    lat = pole_lattice(base, sol, window)
    assert lat.points, "window of this size must contain lattice points"
    oa, ob = sol.omegaA, sol.omegaB
    det = oa.real * ob.imag - oa.imag * ob.real
    for p in lat.points:
        assert window[0] - 1e-9 <= p.real <= window[1] + 1e-9
        assert window[2] - 1e-9 <= p.imag <= window[3] + 1e-9
        u = p - base
        n = (u.real * ob.imag - u.imag * ob.real) / det
        m = (oa.real * u.imag - oa.imag * u.real) / det
        assert abs(n - round(n)) < 1e-9
        assert abs(m - round(m)) < 1e-9
        assert round(m) % 2 == 1, "only odd multiples of the b period"


def test_pole_lattice_needs_finite_periods():
    with pytest.raises(DegenerateLattice):
        pole_lattice(0.0, solve_boutroux(0.0), (-5.0, 5.0, -5.0, 5.0))
