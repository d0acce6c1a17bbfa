"""Exception types shared across the package.

The distinction matters for the CLI exit codes: a PreconditionError (or one
of its subclasses) is a usage/configuration problem (exit code 2), while a
LemmaViolationError signals that a mathematically guaranteed search failed,
i.e. a counterexample (exit code 1).
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain.

    The message names the violated constraint (e.g. "requires p >= n.z").
    """


class DimensionMismatchError(PreconditionError):
    """Multi-index arguments have inconsistent lengths."""


class PoleError(PreconditionError):
    """A rational identity was evaluated at a point where a summand
    denominator vanishes.  The message names each vanishing denominator."""


class GridExhaustedError(PreconditionError):
    """Not enough pole-free evaluation points in the configured range."""


class LemmaViolationError(RuntimeError):
    """A search that is guaranteed to succeed found nothing.

    This must never fire on valid inputs; if it does, it is a
    counterexample to the underlying combinatorial fact.
    """
