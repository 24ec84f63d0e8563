"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit-code contract: parse errors exit 2,
validation/domain/shape errors exit 3, capacity errors exit 4.
"""


class PotentiaError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(PotentiaError):
    """Dimension or shape mismatch between operands."""


class DomainError(PotentiaError):
    """Input outside an operation's mathematical domain."""


class CapacityError(PotentiaError):
    """A configured size cap was exceeded."""


class ParseError(PotentiaError):
    """Malformed input file (bad JSON, missing or mistyped field)."""


class ValidationError(PotentiaError):
    """Parsed data violates a physical invariant."""


class DegenerateConditioningError(DomainError):
    """Conditioning on an event of (numerically) zero probability, or to a state that fails admission."""


class UnderdeterminedError(DomainError):
    """Projector family does not span the Hermitian operator space."""

    def __init__(self, message: str, rank: int, needed: int):
        super().__init__(message)
        self.rank = rank
        self.needed = needed


class ResidualError(DomainError):
    """Valuation is inconsistent: no operator reproduces it within tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NoWitnessError(DomainError):
    """State has positive partial transpose; the eigenvector construction yields no witness."""
