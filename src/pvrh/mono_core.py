"""Types and algebra for 2x2 monodromy data.

Validation against the defining constraints of the monodromy manifold,
gauge normalization, classification into the zero-pattern regions, Stokes
multiplier extraction, and the nonlinear monodromy/Stokes operators that
act on families of monodromy pairs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import AmbiguousSign, WrongFamily


@dataclass(frozen=True)
class Mat2C:
    """Dense 2x2 complex matrix, stored entrywise."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @classmethod
    def identity(cls) -> "Mat2C":
        return cls(1.0, 0.0, 0.0, 1.0)

    def rows(self):
        return ((self.m11, self.m12), (self.m21, self.m22))

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self) -> complex:
        return self.m11 + self.m22

    def __matmul__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inv(self) -> "Mat2C":
        d = self.det()
        return Mat2C(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def power(self, p: int) -> "Mat2C":
        """Integer power by repeated multiplication (|p| is small here)."""
        base = self if p >= 0 else self.inv()
        out = Mat2C.identity()
        for _ in range(abs(p)):
            out = out @ base
        return out

    def norm_inf(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))

    def add(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.m11 + other.m11,
            self.m12 + other.m12,
            self.m21 + other.m21,
            self.m22 + other.m22,
        )

    def sub(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.m11 - other.m11,
            self.m12 - other.m12,
            self.m21 - other.m21,
            self.m22 - other.m22,
        )

    def scale(self, s) -> "Mat2C":
        return Mat2C(self.m11 * s, self.m12 * s, self.m21 * s, self.m22 * s)

    def is_finite(self) -> bool:
        return all(cmath.isfinite(complex(z))
                   for z in (self.m11, self.m12, self.m21, self.m22))


SIGMA1 = Mat2C(0.0, 1.0, 1.0, 0.0)


def exp_sigma3(a: complex) -> Mat2C:
    """diag(e^a, e^-a)."""
    return Mat2C(cmath.exp(a), 0.0, 0.0, cmath.exp(-a))


@dataclass(frozen=True)
class ThetaTriple:
    """Parameter triple of the fifth Painleve equation."""

    theta0: complex
    theta1: complex
    thetaInf: complex

    @property
    def a_theta(self) -> complex:
        return (self.theta0 - self.theta1 + self.thetaInf) ** 2 / 8.0

    @property
    def b_theta(self) -> complex:
        return (self.theta0 - self.theta1 - self.thetaInf) ** 2 / 8.0

    @property
    def c_theta(self) -> complex:
        return 1.0 - self.theta0 - self.theta1

    def negate_inf(self) -> "ThetaTriple":
        return ThetaTriple(self.theta0, self.theta1, -self.thetaInf)


@dataclass(frozen=True)
class MonodromyPair:
    """Pair of unimodular matrices with the theta parameters they realize.

    The pair is a plain container; use validate_pair for the graded
    constraint report.
    """

    m0: Mat2C
    m1: Mat2C
    theta: ThetaTriple

    def norm_inf(self) -> float:
        return max(self.m0.norm_inf(), self.m1.norm_inf())

    def product(self) -> Mat2C:
        """M1 @ M0, the counterclockwise composite loop."""
        return self.m1 @ self.m0


class ZeroTest:
    """The zero test for monodromy data, on the scale s = 1 + max entry of a pair.

    q of degree d in the entries (1 for an entry, 2 for a product of two)
    vanishes when |q| <= tol s^d, and z matches a target when
    |z - target| <= tol s.  Each caller keeps its tol; tol = 0 is exact zero.
    """

    __slots__ = ("scale",)

    def __init__(self, pair: MonodromyPair):
        self.scale = 1.0 + pair.norm_inf()

    def vanishes(self, z: complex, tol: float, degree: int = 1) -> bool:
        bound = tol * self.scale
        return abs(z) <= (bound if degree == 1 else bound * self.scale)

    def matches(self, z: complex, target: complex, tol: float) -> bool:
        return abs(z - target) <= tol * self.scale


@dataclass(frozen=True)
class StokesMatrices:
    """Unitriangular Stokes data (s1 lower, s2 upper) plus the twist."""

    s1: complex
    s2: complex
    thetaInf: complex

    def matrix(self, k: int) -> Mat2C:
        """S_k for any integer index via the period-two twist relation."""
        w = cmath.exp(2.0j * cmath.pi * self.thetaInf)
        if k % 2 == 1:
            ell = (k - 1) // 2
            return Mat2C(1.0, 0.0, self.s1 * w ** (-ell), 1.0)
        ell = k // 2 - 1
        return Mat2C(1.0, self.s2 * w ** ell, 0.0, 1.0)


@dataclass(frozen=True)
class Region:
    """Zero-pattern region tag plus its proper coordinates."""

    tag: str
    coords: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ValidationReport:
    residuals: dict
    ok: bool


@dataclass(frozen=True)
class FamilyElement:
    """A monodromy pair positioned inside a sheet-indexed family.

    family is "plain" for the base orbit and "hat" for the image orbit
    living at the negated infinity parameter.
    """

    pair: MonodromyPair
    index: int
    family: str = "plain"


def validate_pair(m0: Mat2C, m1: Mat2C, theta: ThetaTriple,
                  tol: float = 1e-9) -> ValidationReport:
    """Residuals of the five defining constraints of the monodromy manifold.

    Returns the unimodularity residuals for both matrices, trace residuals
    against 2cos(pi*theta), and the (1,1) product constraint residual.
    Report-style: violations never raise, only non-finite input does.
    """
    if not (m0.is_finite() and m1.is_finite()):
        raise ValueError("monodromy matrices contain non-finite entries")
    residuals = {
        "det_m0": abs(m0.det() - 1.0),
        "det_m1": abs(m1.det() - 1.0),
        "trace_m0": abs(m0.trace() - 2.0 * cmath.cos(cmath.pi * theta.theta0)),
        "trace_m1": abs(m1.trace() - 2.0 * cmath.cos(cmath.pi * theta.theta1)),
        "product_11": abs(
            m0.m11 * m1.m11 + m0.m21 * m1.m12
            - cmath.exp(-1j * cmath.pi * theta.thetaInf)
        ),
    }
    return ValidationReport(residuals, all(r <= tol for r in residuals.values()))


def _gauge_apply(m: Mat2C, c2: complex) -> Mat2C:
    # conjugation by diag(c, 1/c); depends on c^2 only
    return Mat2C(m.m11, m.m12 * c2, m.m21 / c2, m.m22)


def _gauge_cascade(pair: MonodromyPair) -> Tuple[Tuple[complex, str], ...]:
    return (
        (pair.m0.m21, "21"),
        (pair.m0.m12, "12"),
        (pair.m1.m21, "21"),
        (pair.m1.m12, "12"),
    )


def gauge_cascade_index(pair: MonodromyPair,
                        zero_tol: float = 0.0) -> Optional[int]:
    """Position in (m0_21, m0_12, m1_21, m1_12) that gauge_normalize scales.

    The first entry that does not vanish (ZeroTest at zero_tol); None when
    all four vanish and the pair is a fixed point of the gauge action.
    """
    zero = ZeroTest(pair)
    for index, (entry, _) in enumerate(_gauge_cascade(pair)):
        if not zero.vanishes(entry, zero_tol):
            return index
    return None


def gauge_normalize_at(pair: MonodromyPair,
                       index: Optional[int]) -> MonodromyPair:
    """Scale by diag(c, 1/c) so cascade entry index becomes exactly 1.

    index None leaves the pair as it is.  Pairs normalised at the same
    index are comparable entry by entry even where a zero threshold would
    pick different entries for them.
    """
    if index is None:
        return pair
    entry, slot = _gauge_cascade(pair)[index]
    # slot "21" scales by 1/c^2, slot "12" by c^2
    c2 = entry if slot == "21" else 1.0 / entry
    return MonodromyPair(_gauge_apply(pair.m0, c2), _gauge_apply(pair.m1, c2),
                         pair.theta)


def gauge_normalize(pair: MonodromyPair, zero_tol: float = 0.0) -> MonodromyPair:
    """Canonical representative of the diagonal-conjugation orbit.

    Scales by diag(c, 1/c) so the first entry of the cascade
    (m0_21, m0_12, m1_21, m1_12) that is nonzero becomes exactly 1.
    If all four off-diagonals vanish the pair is already a fixed point.
    Gauge-invariant quantities (diagonals, cross products, same-slot
    ratios) are untouched; idempotent by construction.
    """
    return gauge_normalize_at(pair, gauge_cascade_index(pair, zero_tol))


def classify_region(pair: MonodromyPair, zero_tol: float = 0.0) -> Region:
    """Unique zero-pattern region of the pair with its proper coordinates.

    An entry is zero when it vanishes under ZeroTest at zero_tol; pass
    zero_tol around 1e-9 for integrator-produced data and 0 for exactly
    constructed pairs. Plus/minus sublabels match a diagonal entry with
    e^{+-i pi theta} at max(zero_tol, 1e-10) and merge when theta is an
    integer.
    """
    zero = ZeroTest(pair)
    sign_tol = max(zero_tol, 1e-10)
    m0, m1 = pair.m0, pair.m1
    z_m0_21 = zero.vanishes(m0.m21, zero_tol)
    z_m1_12 = zero.vanishes(m1.m12, zero_tol)

    if not z_m0_21 and not z_m1_12:
        z00 = zero.vanishes(m0.m11, zero_tol)
        z11 = zero.vanishes(m1.m11, zero_tol)
        prod = m0.m21 * m1.m12
        if not z00 and not z11:
            return Region("R1", {"m0_11": m0.m11, "m0_21m1_12": prod})
        if z00 and z11:
            return Region("R2_01", {})
        if z11:
            return Region("R2_0", {"m0_11": m0.m11})
        return Region("R2_1", {"m1_11": m1.m11})

    if z_m0_21 and z_m1_12:
        # AmbiguousSign when m1_11 matches neither e^{+-i pi theta1}
        _resolve_sign(m1.m11, pair.theta.theta1, zero, sign_tol)
        return Region("R5", {"m0_12m1_21": m0.m12 * m1.m21})

    if z_m1_12:
        sign = _resolve_sign(m1.m11, pair.theta.theta1, zero, sign_tol)
        tag = "R3" if sign is None else ("R3plus" if sign > 0 else "R3minus")
        return Region(tag, {"m1_21/m0_21": m1.m21 / m0.m21})

    sign = _resolve_sign(m0.m11, pair.theta.theta0, zero, sign_tol)
    tag = "R4" if sign is None else ("R4plus" if sign > 0 else "R4minus")
    return Region(tag, {"m0_12/m1_12": m0.m12 / m1.m12})


def _resolve_sign(entry: complex, theta: complex, zero: ZeroTest,
                  tol: float) -> Optional[int]:
    """+1/-1 by matching e^{+-i pi theta}; None when both match (integer theta)."""
    hit_plus = zero.matches(entry, cmath.exp(1j * cmath.pi * theta), tol)
    hit_minus = zero.matches(entry, cmath.exp(-1j * cmath.pi * theta), tol)
    if hit_plus and hit_minus:
        return None
    if hit_plus:
        return 1
    if hit_minus:
        return -1
    raise AmbiguousSign(
        f"diagonal entry {entry!r} matches neither exponential of theta={theta!r}"
    )


def stokes_from_pair(pair: MonodromyPair) -> StokesMatrices:
    """Stokes multipliers determined by the pair.

    Uses the entry identities that follow from factoring the composite
    loop into the two unitriangular factors and the formal-twist diagonal.
    """
    w = cmath.exp(1j * cmath.pi * pair.theta.thetaInf)
    m0, m1 = pair.m0, pair.m1
    s2 = -w * (m0.m12 * m1.m11 + m0.m22 * m1.m12)
    s1 = -w * (m0.m11 * m1.m21 + m0.m21 * m1.m22)
    return StokesMatrices(s1, s2, pair.theta.thetaInf)


def product_from_stokes(stokes: StokesMatrices) -> Mat2C:
    """Reconstruct M1 @ M0 = S1^-1 e^{-i pi thetaInf sigma3} S2^-1."""
    s1m = Mat2C(1.0, 0.0, stokes.s1, 1.0)
    s2m = Mat2C(1.0, stokes.s2, 0.0, 1.0)
    core = exp_sigma3(-1j * cmath.pi * stokes.thetaInf)
    return s1m.inv() @ core @ s2m.inv()


def conjugate_pair(pair: MonodromyPair, g: Mat2C,
                   theta: ThetaTriple) -> MonodromyPair:
    """g M g^-1 for both matrices, labelled with theta."""
    gi = g.inv()
    return MonodromyPair(g @ pair.m0 @ gi, g @ pair.m1 @ gi, theta)


def monodromy_shift(pair: MonodromyPair, p: int) -> MonodromyPair:
    """Conjugate both matrices by the p-th power of the composite loop."""
    return conjugate_pair(pair, pair.product().power(p), pair.theta)


def _theta_twist_conjugators(base: MonodromyPair) -> dict:
    """The two composite conjugators that implement the family operators.

    Built from the base pair's Stokes data:
      T2 = S2 e^{i pi thetaInf sigma3 / 2} sigma1   (upper route)
      T1 = sigma1 e^{i pi thetaInf sigma3 / 2} S1   (lower route)
    """
    stokes = stokes_from_pair(base)
    half = exp_sigma3(0.5j * cmath.pi * base.theta.thetaInf)
    return {"T1": SIGMA1 @ half @ stokes.matrix(1),
            "T2": stokes.matrix(2) @ half @ SIGMA1}


# tag: (domain family, codomain family, index step, conjugator, power).  The
# image of M is g M g^-1 with g = conjugator^power; "loop" is the composite
# loop M1 M0 of the element's own pair, T1 and T2 come from the family base.
_OPERATORS = {
    "m": ("plain", "plain", 1, "loop", 1),
    "m_inv": ("plain", "plain", -1, "loop", -1),
    "s0": ("plain", "hat", 0, "T2", -1),
    "s1": ("plain", "hat", -1, "T1", 1),
    "shat0": ("hat", "plain", 0, "T2", 1),
    "shat1": ("hat", "plain", 1, "T1", -1),
}


def apply_operator(op_tag: str, element: FamilyElement,
                   family_base: MonodromyPair) -> FamilyElement:
    """One step of the nonlinear monodromy/Stokes operator action.

    op_tag is one of m, m_inv, s0, s1 (domain: plain family) or shat0,
    shat1 (domain: hat family). Index bookkeeping: m and m_inv shift p to
    p+1 and p-1 inside the plain family; s0 maps p to hat-p; s1 maps p to
    hat-(p-1); shat0 maps hat-p back to p; shat1 maps hat-p to p+1. The
    matrix content is the conjugation of _OPERATORS; the Stokes operators
    negate thetaInf.
    """
    if op_tag not in _OPERATORS:
        raise ValueError(f"unknown operator tag {op_tag!r}")
    domain, codomain, step, conjugator, power = _OPERATORS[op_tag]
    if element.family != domain:
        raise WrongFamily(f"operator {op_tag} acts on the {domain} family")
    pair = element.pair
    if conjugator == "loop":
        g = pair.product()
    else:
        g = _theta_twist_conjugators(family_base)[conjugator]
    theta = pair.theta if domain == codomain else pair.theta.negate_inf()
    return FamilyElement(conjugate_pair(pair, g.power(power), theta),
                         element.index + step, codomain)


def stokes_hat(pair: MonodromyPair) -> MonodromyPair:
    """Image pair under the upper-triangular Stokes twist: s0 with the pair
    as its own family base.

    The output realizes the parameters (theta0, theta1, -thetaInf).
    """
    return apply_operator("s0", FamilyElement(pair, 0), pair).pair


def stokes_check(pair: MonodromyPair) -> MonodromyPair:
    """Image pair under the lower-triangular Stokes twist: s1 with the pair
    as its own family base; also lands at (theta0, theta1, -thetaInf).
    """
    return apply_operator("s1", FamilyElement(pair, 0), pair).pair


def u_p_matrix(stokes: StokesMatrices, p: int) -> Mat2C:
    """Partial product of Stokes factors used in the sheet-shift identity.

    For p >= 1 the ascending product S_2 S_3 ... S_{2p+1}; for p <= -1 the
    descending product of inverses S_1^-1 S_0^-1 ... S_{2p+2}^-1; identity
    at p = 0. Equals (M1 M0)^{-p} e^{-i pi thetaInf p sigma3} for data
    consistent with the same pair.
    """
    out = Mat2C.identity()
    if p >= 1:
        for k in range(2, 2 * p + 2):
            out = out @ stokes.matrix(k)
    elif p <= -1:
        for k in range(1, 2 * p + 1, -1):
            out = out @ stokes.matrix(k).inv()
    return out


def pair_to_json_obj(pair: MonodromyPair) -> dict:
    """JSON-ready dict: complex scalars as [re, im], matrices row-major."""

    def c2(z: complex) -> list:
        z = complex(z)
        return [z.real, z.imag]

    def mat(m: Mat2C) -> list:
        return [[c2(m.m11), c2(m.m12)], [c2(m.m21), c2(m.m22)]]

    th = pair.theta
    return {
        "theta": [c2(th.theta0), c2(th.theta1), c2(th.thetaInf)],
        "m0": mat(pair.m0),
        "m1": mat(pair.m1),
    }


def pair_from_json_obj(obj: dict) -> MonodromyPair:
    def c2(v) -> complex:
        if isinstance(v, (int, float)):
            return complex(v)
        re, im = v
        return complex(re, im)

    def mat(rows) -> Mat2C:
        return Mat2C(c2(rows[0][0]), c2(rows[0][1]),
                     c2(rows[1][0]), c2(rows[1][1]))

    t0, t1, ti = (c2(v) for v in obj["theta"])
    return MonodromyPair(mat(obj["m0"]), mat(obj["m1"]), ThetaTriple(t0, t1, ti))
