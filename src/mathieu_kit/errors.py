"""Exception hierarchy.

Every refusal is explicit: a scan that would exceed its budget raises
:class:`TooLarge`, an operation that needs a finite base field raises
:class:`InfiniteField` (or :class:`InfiniteFieldNoDecision` when the
operation is a decision procedure with no algorithm over the rationals).
Nothing is ever silently downgraded to an approximation.
"""

from __future__ import annotations


class MathieuKitError(Exception):
    """Base class for all errors raised by this package."""


# --- field and polynomial arithmetic ---------------------------------------


class FieldMismatch(MathieuKitError, ValueError):
    """Operands belong to different base fields."""


class DivisionByZero(MathieuKitError, ZeroDivisionError):
    """Inversion or division by the zero scalar."""


class BothZero(MathieuKitError, ValueError):
    """gcd of the pair (0, 0) is undefined."""


class ZeroPolynomial(MathieuKitError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class NotMonic(MathieuKitError, ValueError):
    """A monic polynomial is required."""


# --- algebra construction and element arithmetic ---------------------------


class NotAssociative(MathieuKitError, ValueError):
    """Structure constants violate associativity; carries one offending triple."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"associativity fails on basis triple {triple}")


class BadUnit(MathieuKitError, ValueError):
    """Claimed unit does not act as identity; carries the offending basis index."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"unit law fails on basis element {index}")


class AlgebraMismatch(MathieuKitError, ValueError):
    """Operands live in different algebras."""


class InfiniteField(MathieuKitError, ValueError):
    """Operation requires a finite base field."""


class InfiniteFieldNoDecision(InfiniteField):
    """No decision procedure is available over an infinite base field."""


class NotAnIdeal(MathieuKitError, ValueError):
    """Subspace is not a two-sided ideal; carries one violating pair."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"absorption fails on {pair}")


class NotAHomomorphism(MathieuKitError, ValueError):
    """Linear map is not a unit-preserving algebra homomorphism."""


class NilpotentInput(MathieuKitError, ValueError):
    """Nilpotent element passed where a non-nilpotent one is required."""


class InvertibleInput(MathieuKitError, ValueError):
    """Invertible element passed where a non-invertible one is required."""


# --- guardrails -------------------------------------------------------------


#: The one budget of every exhaustive job, in evaluations of the route it
#: runs (``--max-scan`` / ``MATHIEU_KIT_MAX_SCAN`` on the command line).
MAX_SCAN_DEFAULT = 10**7


class TooLarge(MathieuKitError, ValueError):
    """An exhaustive job would exceed its configured budget."""

    def __init__(self, needed, limit, what="scan"):
        self.needed = needed
        self.limit = limit
        super().__init__(f"{what} needs {needed} evaluations, budget is {limit}")


def charge(needed, limit, what: str) -> None:
    """Raise :class:`TooLarge` when ``needed`` is past the budget ``limit``."""
    if needed > limit:
        raise TooLarge(needed, limit, what=what)


# --- decision procedures ----------------------------------------------------


class NotInRadical(MathieuKitError, ValueError):
    """Element is not in the radical of the given subspace."""


class NotMathieu(MathieuKitError, ValueError):
    """The subspace turned out not to be a Mathieu subspace."""


class NotCommutative(MathieuKitError, ValueError):
    """Operation requires a commutative ambient algebra."""


class ZeroElement(MathieuKitError, ValueError):
    """The zero element spans no line."""


class OnlyTrivial(MathieuKitError, ValueError):
    """The algebra has no nontrivial Mathieu subspace (it is the base field)."""


# --- matrix-algebra machinery ------------------------------------------------


class ZeroDual(MathieuKitError, ValueError):
    """Zero dual vector defines no hyperplane."""


class NotMatrixAlgebra(MathieuKitError, ValueError):
    """Ambient algebra is not a full matrix algebra on the matrix-unit basis."""


class WrongCodimension(MathieuKitError, ValueError):
    """Subspace does not have codimension one."""


class ScalarDual(MathieuKitError, ValueError):
    """The dual vector is a scalar multiple of the identity matrix."""


class TooSmall(MathieuKitError, ValueError):
    """Matrix size too small for this construction."""


class NotProper(MathieuKitError, ValueError):
    """A proper subspace is required."""


# --- internal cross-checks ----------------------------------------------------


class ConsistencyError(MathieuKitError, RuntimeError):
    """Two independent routes to the same fact disagreed.

    Raised by operations that recompute their own answer a second way
    (for example a power product in a new power table against the same
    product recomputed from the dense structure constants).  Reaching this is
    always a bug, never a property of the input.
    """
