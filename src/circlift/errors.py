"""Exception types shared across the package.

Every error carries an optional ``operation`` tag (``"module.op"``) so batch
front ends can report which step failed in machine-readable form.
"""

from __future__ import annotations


class CircliftError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str = "", operation: str | None = None):
        super().__init__(message)
        self.operation = operation


# --- finite field ---

class ZeroInverse(CircliftError):
    """Multiplicative inverse of zero requested."""


class PrimalityUnproven(CircliftError):
    """A number passed Miller-Rabin to every base `fields.is_prime` tries,
    but lies above the bound below which that proves it prime."""


# --- complexes ---

class EmptyInput(CircliftError):
    """No points (or no simplices) supplied."""


class DimensionOutOfRange(CircliftError):
    """Requested chain/cochain degree does not exist in the complex, or the
    operation does not work in that degree."""


class DimensionMismatch(CircliftError):
    """Operands live in different degrees or on different complexes."""


# --- persistence ---

class NoDualCycle(CircliftError):
    """No computed cycle pairs nonzero with the chosen cocycle."""


class EmptyDiagram(CircliftError):
    """No persistence pair available in the requested dimension."""


# --- lifting ---

class NotClosed(CircliftError):
    """Input is not closed (coboundary/boundary does not vanish) over F_p."""


class Unliftable(CircliftError):
    """Every lifting route was exhausted without producing a closed lift."""


class TorsionObstruction(Unliftable):
    """The integer repair system is unsolvable: p-torsion blocks the lift."""


class ComplexTooLargeForSnf(CircliftError):
    """Smith-normal-form fallback refused: complex exceeds the size cap."""


# --- winding ---

class NotACocycle(CircliftError):
    """An integer cochain expected to be a cocycle is not."""


class ZeroPairing(CircliftError):
    """Kronecker pairing vanished; a different cycle representative is needed."""


class NotDivisible(CircliftError):
    """The class does not vanish mod q, so no division step applies."""


class ValidationFailed(CircliftError):
    """A certificate failed its direct check over Z: a lift is not closed or
    does not reduce to its input, or a division identity does not hold."""


# --- smoothing / coordinates ---

class SolverDiverged(CircliftError):
    """Least-squares solve did not reach the required residual."""


class InconsistentCocycle(CircliftError):
    """Edge consistency of the circular map violated beyond tolerance."""


class VertexSetMismatch(CircliftError):
    """Two vertex-indexed maps do not share the same vertex set."""


# --- plotting / cli ---

class DegenerateData(CircliftError):
    """Input has no variance to project."""
