"""Exact combinatorics of graded words: counting, two bijections, and
mechanically verified convolution identities, all over exact rationals.

The package has no numerical tolerance anywhere: every comparison is between
Python ints and `fractions.Fraction` values, every verdict is exact equality,
and every reported mismatch comes with a reproducible counterexample.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562 `__getattr__`) and kept
here after, so `gradedwords.count_words` loads only the words layer and what
it imports, and `gradedwords.main` only the command line's own modules.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

# module -> the public names it provides
_EXPORTS = {
    "arith": (
        "MultiIndex", "Scalar", "box", "dot", "format_scalar", "multi_factorial",
        "multinomial", "norm", "parse_scalar", "unit", "vec_add", "vec_sub", "zeros",
    ),
    "bijections": (
        "Overshoot", "PrefixCase", "RaneyFactorization", "raney_factorize", "raney_unfactorize",
        "shift_by", "shift_down", "verify_raney_decomposition", "verify_raney_word",
        "verify_shift_bijection", "verify_shift_word",
    ),
    "cli": ("default_manifest", "main", "run_suite"),
    "errors": (
        "DimensionMismatchError", "GridExhaustedError", "LemmaViolationError", "PoleError",
        "PreconditionError",
    ),
    "identities": (
        "CATALOG", "IdentitySpec", "identity_variables", "verify_identity_at_point",
        "verify_identity_on_grid",
    ),
    "reports": ("EvalReport",),
    "series": (
        "TruncatedSeries", "check_generating_function_1", "check_generating_function_2",
        "exponents_up_to", "functional_equation_residual", "solve_functional_equation",
        "verify_solution",
    ),
    "words": (
        "GradedAlphabet", "Word", "WordClassSpec", "count_prefix_class", "count_words",
        "enumerate_words", "verify_count",
    ),
}

# public name -> its module
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_ORIGIN])


def __getattr__(name: str) -> object:
    """A public name, imported from its module on first access and kept
    in this module's globals, so later lookups do not come here."""
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
