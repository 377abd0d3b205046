"""Domain errors with stable machine-readable codes.

Every error carries a ``code`` string that the CLI surfaces verbatim in
JSON mode, so scripted callers can dispatch on it without parsing prose.
"""


class DomainError(ValueError):
    """Base class for all domain errors raised by this package."""

    code = "domain-error"


class ZeroDiscriminant(DomainError):
    code = "zero-discriminant"


class ZeroForm(DomainError):
    code = "zero-form"


class NotUnimodular(DomainError):
    code = "not-unimodular"


class NotADiscriminant(DomainError):
    code = "not-a-discriminant"


class MismatchedDiscriminant(DomainError):
    code = "mismatched-discriminant"


class NotCoprimeContent(DomainError):
    code = "not-coprime-content"


class NotPrimitive(DomainError):
    code = "not-primitive"


class NotOneMod4(DomainError):
    code = "not-one-mod-4"


class NotSquareDiscriminant(DomainError):
    code = "not-square-discriminant"


class NotCoprimeResidue(DomainError):
    code = "not-coprime-residue"


class NotOddPositive(DomainError):
    code = "not-odd-positive"


class NotNegative(DomainError):
    code = "not-negative"


class NotGross(DomainError):
    code = "not-gross"


class NotASummand(DomainError):
    code = "not-a-summand"


class NotPairPrimitive(DomainError):
    code = "not-pair-primitive"


class MismatchedDeterminant(DomainError):
    code = "mismatched-determinant"


class ZeroDeterminant(DomainError):
    code = "zero-determinant"


class NotSymplectic(DomainError):
    code = "not-symplectic"


class NoCoprimePair(DomainError):
    code = "no-coprime-pair"


class NotCoprime(DomainError):
    code = "not-coprime"


class OutOfRange(DomainError):
    code = "out-of-range"


class TooLarge(DomainError):
    code = "too-large"
