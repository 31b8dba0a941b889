"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: bad input / failed validation -> 2,
exhausted budgets -> 3, failed audits -> 4.
"""

from __future__ import annotations


class SplitwiseError(Exception):
    """Base class for all package errors."""


class FormatError(SplitwiseError):
    """Malformed instance/tree/MSSC text or structured document."""


class ParameterError(SplitwiseError):
    """An argument is outside its documented domain."""


class InvalidInstanceError(SplitwiseError):
    """Semantic validity failure (weights, distinguishability) where validity is required."""

    def __init__(self, message: str, undistinguished: tuple[int, int] | None = None):
        super().__init__(message)
        self.undistinguished = undistinguished


class IncompleteTreeError(SplitwiseError):
    """An operation that requires a complete tree was handed a truncated one."""


class NonUniformError(SplitwiseError):
    """A uniform-weights-only routine was handed a non-uniform instance."""


class BudgetExceededError(SplitwiseError):
    """A solver ran past its node-expansion or wall-clock budget."""

    def __init__(self, message: str, expansions: int | None = None):
        super().__init__(message)
        self.expansions = expansions


class GenerationError(SplitwiseError):
    """A generator could not produce a valid instance within its retry budget."""


class StructureError(SplitwiseError):
    """A structural lemma the code relies on was violated (indicates a bug upstream)."""
