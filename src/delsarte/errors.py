"""Exception taxonomy.

Every error raised deliberately by this package derives from
:class:`DelsarteError`, so callers can fence off library failures from
programming mistakes with a single except clause.
"""

from __future__ import annotations


class DelsarteError(Exception):
    """Base class for all package-level errors."""


class GridError(DelsarteError):
    """Invalid grid construction (bad endpoints, too few nodes, ...)."""


class DiscretizationError(DelsarteError):
    """Operator data that cannot be discretized as requested."""


class DegreeMismatchError(DelsarteError):
    """Cochain degrees incompatible with the requested operation."""


class EmptyBandError(DelsarteError):
    """No spectrum found in the requested window."""


class SingularMinorError(DelsarteError):
    """A leading principal minor vanishes, blocking triangular factorization.

    ``index`` is the size of the offending minor (1-based): the factorization
    marched through sizes 1..index-1 and failed at ``index``.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"leading principal minor of size {index} is singular")


class NotClosedError(DelsarteError):
    """A form handed to a period map is not closed (d_L form != 0) or has
    non-finite entries."""

    def __init__(self, residual: float, message: str):
        self.residual = residual
        super().__init__(message)


class NonCommutingFamilyError(DelsarteError):
    """Generator family handed to a complex fails the pairwise commutation
    requirement, so d^2 = 0 would not hold."""


class SeedNodeError(DelsarteError):
    """A dressing seed vanishes somewhere on the grid, so the dressed
    potential would have a pole there."""


class SingularKernelError(DelsarteError):
    """The running normalization of a dressing kernel passes through zero."""


class ConditionNumberError(DelsarteError):
    """A conjugation was requested with a factor too ill-conditioned to trust."""
