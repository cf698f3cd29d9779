"""Domain error types shared across the package.

Every error that reflects bad input or an unsatisfiable request derives
from QVerifyError so callers (and the command line driver) can separate
domain failures from genuine bugs.
"""


class QVerifyError(Exception):
    """Base class for all domain errors raised by this package."""


class NonHermitianError(QVerifyError):
    """An operator failed its Hermiticity check."""


class BadDimError(QVerifyError):
    """A vector or operator has an unsupported or inconsistent dimension."""


class NotUnitaryError(QVerifyError):
    """A matrix supplied as a unitary is not unitary within tolerance."""


class ThetaOutOfDomainError(QVerifyError):
    """An angle lies outside the domain of its construction.

    check_theta accepts the closed interval [0, pi/2] (the special
    angles inside it raise ThetaNearSpecialValueError instead);
    hull_boundary needs the open interval (0, pi/2).
    """


class ThetaNearSpecialValueError(QVerifyError):
    """An angle is within threshold of 0, pi/4, or pi/2.

    Those targets have their own dedicated constructions with
    discontinuously different sample counts, so the caller must pick one
    explicitly instead of silently getting a nearly singular general
    construction.
    """


class DegenerateStrategyError(QVerifyError):
    """A strategy accepts some orthogonal state with certainty (q = 1)."""


class NonCommutingError(QVerifyError):
    """Pauli strings that must commute do not."""


class DependentGeneratorsError(QVerifyError):
    """Stabilizer generators are linearly dependent over GF(2)."""


class InconsistentSignsError(QVerifyError):
    """A signed Pauli string i^phase X^x Z^z is anti-Hermitian: phase and
    its number of Y letters differ in parity. (Generators whose signs would
    put -identity into the group raise DependentGeneratorsError.)"""


class UndefinedDivergenceError(QVerifyError):
    """Binary relative entropy evaluated where it diverges."""


class ValidationError(QVerifyError):
    """A constructed value violates one of its structural invariants."""


class NormalizationError(ValidationError, ValueError):
    """A ket's norm is not 1, or a (near) zero vector was normalized.

    It is also a ValueError, the type callers of Ket catch for a bad norm.
    """
