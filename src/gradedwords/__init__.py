"""Exact combinatorics of graded words: counting, two bijections, and
mechanically verified convolution identities, all over exact rationals.

The package has no numerical tolerance anywhere: every comparison is between
Python ints and `fractions.Fraction` values, every verdict is exact equality,
and every reported mismatch comes with a reproducible counterexample.
"""

from __future__ import annotations

from .arith import (
    MultiIndex,
    Scalar,
    box,
    dot,
    format_scalar,
    multi_factorial,
    multinomial,
    norm,
    parse_scalar,
    unit,
    vec_add,
    vec_sub,
    zeros,
)
from .bijections import (
    BalancedPair,
    Overshoot,
    PrefixCase,
    RaneyFactorization,
    find_balanced_pair,
    find_equal_prefixes,
    raney_factorize,
    raney_unfactorize,
    shift_by,
    shift_down,
    verify_raney_decomposition,
    verify_shift_bijection,
)
from .cli import default_manifest, main, run_suite
from .errors import (
    DimensionMismatchError,
    GridExhaustedError,
    LemmaViolationError,
    PoleError,
    PreconditionError,
)
from .identities import (
    CATALOG,
    IdentitySpec,
    identity_variables,
    verify_identity_at_point,
    verify_identity_on_grid,
)
from .reports import EvalReport
from .series import (
    TruncatedSeries,
    check_generating_function_1,
    check_generating_function_2,
    exponents_up_to,
    functional_equation_residual,
    solve_functional_equation,
)
from .words import (
    GradedAlphabet,
    Word,
    WordClassSpec,
    count_prefix_class,
    count_words,
    enumerate_words,
)

__version__ = "1.0.0"

__all__ = [
    "BalancedPair",
    "CATALOG",
    "DimensionMismatchError",
    "EvalReport",
    "GradedAlphabet",
    "GridExhaustedError",
    "IdentitySpec",
    "LemmaViolationError",
    "MultiIndex",
    "Overshoot",
    "PoleError",
    "PreconditionError",
    "PrefixCase",
    "RaneyFactorization",
    "Scalar",
    "TruncatedSeries",
    "Word",
    "WordClassSpec",
    "__version__",
    "box",
    "check_generating_function_1",
    "check_generating_function_2",
    "count_prefix_class",
    "count_words",
    "default_manifest",
    "dot",
    "enumerate_words",
    "exponents_up_to",
    "find_balanced_pair",
    "find_equal_prefixes",
    "format_scalar",
    "functional_equation_residual",
    "identity_variables",
    "main",
    "multi_factorial",
    "multinomial",
    "norm",
    "parse_scalar",
    "raney_factorize",
    "raney_unfactorize",
    "run_suite",
    "shift_by",
    "shift_down",
    "solve_functional_equation",
    "unit",
    "vec_add",
    "vec_sub",
    "verify_identity_at_point",
    "verify_identity_on_grid",
    "verify_raney_decomposition",
    "verify_shift_bijection",
    "zeros",
]
