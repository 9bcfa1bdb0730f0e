"""Exception hierarchy shared across the package."""


class PvrhError(Exception):
    """Base class for every package-specific failure."""


# --- monodromy algebra ---

class AmbiguousSign(PvrhError):
    """A diagonal entry matches neither admissible exponential value."""


class WrongFamily(PvrhError):
    """Operator applied to an element outside its domain family."""


# --- Boutroux curve / elliptic kernel ---

class DegenerateCurve(PvrhError):
    """Modulus sits at a degenerate value where a cycle collapses."""


class NoConvergence(PvrhError):
    """Iterative solve failed to reach tolerance."""


class NearPole(PvrhError):
    """Evaluation point is too close to a pole for a trustworthy value."""


class DegenerateLattice(PvrhError):
    """Period lattice is numerically collapsed (parallel periods)."""


# --- asymptotic families ---

class PoleOfGamma(PvrhError):
    """Gamma factor requested at a nonpositive integer."""


class DomainViolation(PvrhError):
    """A monodromy entry required nonzero by the formula vanishes."""


class CaseGap(PvrhError):
    """Growth exponent falls outside every band with a stated formula."""


class ResonanceFailure(PvrhError):
    """Series recursion hit a vanishing linear coefficient."""


class ThetaViolation(PvrhError):
    """Parameter triple violates the family's non-resonance conditions."""


class ConditionMismatch(PvrhError):
    """Parameter triple does not satisfy the requested resonance pattern."""


class OutsideValidity(PvrhError):
    """Evaluation point violates the family's sector or size constraint."""


class WrongSector(PvrhError):
    """Direction lies outside the half-plane this formula covers."""


class InsidePoleDisk(PvrhError):
    """Evaluation point is inside the excluded disk around a pole."""


class UnderdeterminedCompletion(PvrhError):
    """Matrix completion constraints do not fix the remaining entries."""


class OrderOutOfRange(PvrhError):
    """Series truncation order outside the orders the family's series takes."""


# --- dispatch ---

class IntegerTheta(PvrhError):
    """Operation requires non-integer theta parameters."""


class NonUniqueFiber(PvrhError):
    """Monodromy data contain a scalar matrix; no unique solution attached."""


class UnmappedRegion(PvrhError):
    """No solution family is attached to this region under these parameters."""


class NotPiMultiple(PvrhError):
    """Continuation endpoints do not differ by an integer multiple of pi."""


# --- oracle ---

class HitSingularity(PvrhError):
    """ODE trajectory approached a movable pole or a zero of y, y-1."""


class ToleranceFailure(PvrhError):
    """An integrator, or the Fricke check of a rotated pair, missed its tolerance."""


class GridTooCoarse(PvrhError):
    """Sample grid has too few points for the stencil."""


class LoopHitsSingularity(PvrhError):
    """Transport path passes too close to a singular point."""


class SeedDefectTooLarge(PvrhError):
    """Asymptotic seed frame defect exceeds the trust threshold."""


# Failures of an iteration or a step-size control, as opposed to inputs
# that are structurally fine but violate a domain constraint.
NUMERIC_ERRORS = (NoConvergence, ToleranceFailure, SeedDefectTooLarge,
                  GridTooCoarse, HitSingularity, LoopHitsSingularity,
                  DegenerateLattice)
