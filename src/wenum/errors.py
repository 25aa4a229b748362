"""Exception hierarchy.

DomainError covers bad inputs and violated preconditions;
PrecisionFailureError covers numeric outcomes that are honest failures
rather than wrong answers, so one `except` catches any failure of a root
solve.  A planned command-line interface maps DomainError to exit 2 and
PrecisionFailureError to exit 3.
"""


class WenumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WenumError):
    """Invalid input or violated precondition."""


class FieldMismatchError(DomainError):
    """Operands belong to different finite fields."""


class EnumerationBudgetError(DomainError):
    """Requested enumeration exceeds the codeword budget."""

    def __init__(self, count, budget):
        self.count = count
        self.budget = budget
        super().__init__(
            f"enumeration of {count} codewords exceeds budget {budget}"
        )


class NotACodeEnumeratorError(DomainError):
    """Polynomial cannot be the weight enumerator of a linear code."""


class ClassificationError(DomainError):
    """Classification precondition violated (wrong shape or unsupported q)."""


class DegenerateInputError(DomainError):
    """Geometrically degenerate input (coincident points, singular triples)."""


class PrecisionFailureError(WenumError):
    """A root solve, or a group built on its roots, could not be certified."""
