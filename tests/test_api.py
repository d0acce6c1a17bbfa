"""The public surface: exactly the listed names, each of which resolves."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gradedwords

MODULES = [gradedwords] + [
    importlib.import_module(f"gradedwords.{info.name}")
    for info in pkgutil.iter_modules(gradedwords.__path__)
]


# The package's public names.  A new one, an alias included, is added here.
PUBLIC = [
    "BalancedPair", "CATALOG", "DimensionMismatchError", "EvalReport", "GradedAlphabet",
    "GridExhaustedError", "IdentitySpec", "LemmaViolationError", "MultiIndex", "Overshoot",
    "PoleError", "PreconditionError", "PrefixCase", "RaneyFactorization", "Scalar",
    "TruncatedSeries", "Word", "WordClassSpec", "__version__", "box",
    "check_generating_function_1", "check_generating_function_2", "count_prefix_class",
    "count_words", "default_manifest", "dot", "enumerate_words", "exponents_up_to",
    "find_balanced_pair", "find_equal_prefixes", "format_scalar",
    "functional_equation_residual", "identity_variables", "main", "multi_factorial",
    "multinomial", "norm", "parse_scalar", "raney_factorize", "raney_unfactorize",
    "run_suite", "shift_by", "shift_down", "solve_functional_equation", "unit", "vec_add",
    "vec_sub", "verify_identity_at_point", "verify_identity_on_grid",
    "verify_raney_decomposition", "verify_shift_bijection", "zeros",
]

# names that only renamed another operation, and what replaced each:
# shift_up(w, p) -> shift_by(w, p, 1); Word.has_prefix_of_weight(r) ->
# prefix_cut(r) is not None; GradedAlphabet.letter_weights() -> .weights;
# TruncatedSeries.one / zero / constant_term -> constant(1, m, N) /
# TruncatedSeries(m, N) / coefficient((0,) * m); catalog_names() -> list(CATALOG)
REMOVED_ALIASES = [
    "shift_up", "has_prefix_of_weight", "letter_weights", "one", "zero", "constant_term",
    "catalog_names",
]


def test_the_public_names_are_exactly_the_listed_ones():
    assert gradedwords.__all__ == PUBLIC


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_no_removed_alias_resolves(module):
    classes = [v for v in vars(module).values() if isinstance(v, type)
               and v.__module__.startswith("gradedwords")]
    assert [
        (owner.__name__, name)
        for owner in [module, *classes]
        for name in REMOVED_ALIASES
        if hasattr(owner, name)
    ] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


def test_every_private_name_the_readme_cites_is_defined():
    # a rename that leaves the README naming a function that is gone fails here
    root = Path(__file__).resolve().parent.parent
    cited = set(re.findall(r"`@?(_\w+)", (root / "README.md").read_text()))
    source = "\n".join(
        path.read_text() for path in sorted((root / "src" / "gradedwords").glob("*.py"))
    )
    missing = [
        name
        for name in sorted(cited)
        if not re.search(rf"^\s*(?:def|class)\s+{name}\b|^\s*{name}\s*[:=]", source, re.M)
    ]
    assert cited and missing == []
