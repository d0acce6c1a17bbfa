"""The public surface: exactly the listed names, each of which resolves, and
no module that rebinds a global."""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import gradedwords
from gradedwords import arith, identities

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


def test_every_keyword_of_the_readme_decorator_example_is_taken():
    # the README's `@_identity(...)` example names only options the decorator has
    root = Path(__file__).resolve().parent.parent
    examples = re.findall(r"@_identity\(([^)]*)\)", (root / "README.md").read_text())
    keywords = {key for example in examples for key in re.findall(r"(\w+)=", example)}
    assert keywords and keywords <= set(inspect.signature(identities._identity).parameters)


def test_the_readme_grid_example_is_the_programs_grid(capsys):
    # each `$ gradedwords verify …` example whose output shows a "grid" object
    # shows the grid that command reports
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = re.findall(r"^\$ gradedwords (verify .*)\n(.*\"grid\":.*)$", text, re.M)
    for command, shown in examples:
        grid, _ = json.JSONDecoder().raw_decode(shown, shown.index('"grid":') + len('"grid":'))
        assert gradedwords.main(command.split()) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == grid, command
    assert examples


def test_no_module_rebinds_a_global():
    # state a function reads goes in as an argument: a global statement would
    # let one call rebind what another, still running, reads
    root = Path(__file__).resolve().parent.parent / "src" / "gradedwords"
    found = [
        (path.name, node.lineno)
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_every_memo_is_bounded():
    # a memo that grows with its inputs can take the process's memory: each
    # lru_cache keeps an int number of entries, functools.cache memoizes only
    # a function of no parameter, and neither is used but as a decorator
    root = Path(__file__).resolve().parent.parent / "src" / "gradedwords"
    memos, unbounded, other_uses = [], [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"gradedwords.{path.stem}".removesuffix(".__init__"))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    kind = getattr(target, "attr", getattr(target, "id", None))
                    if kind == "lru_cache":
                        maxsize = getattr(module, node.name).cache_parameters()["maxsize"]
                        bounded = type(maxsize) is int
                    elif kind == "cache":
                        bounded = not ast.unparse(node.args)
                    else:
                        continue
                    decorators.add(target)
                    memos.append(f"{path.stem}.{node.name}")
                    if not bounded:
                        unbounded.append(memos[-1])
        other_uses += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if getattr(node, "attr", getattr(node, "id", None)) in ("cache", "lru_cache")
            and isinstance(node, (ast.Name, ast.Attribute)) and node not in decorators
        ]
    assert unbounded == [] and other_uses == []
    assert {"words._table", "cli._build_parser", "series._solved", "identities._table"} <= set(memos)
    # a _Memo is made only by the _Cap that bounds it, which lists it while it lives
    def memos_made(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "_Memo"]

    made, in_cap = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        made += memos_made(tree)
        in_cap += [call for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name == "_Cap"
                   for call in memos_made(node)]
    assert made and made == in_cap
    # each _Memo kept past a call, after the built-in suite ran, carries an
    # int cap that lists it, and the memos under one cap keep at most its cap
    gradedwords.run_suite(gradedwords.default_manifest(), 1)
    gc.collect()
    kept = [m for m in gc.get_objects() if isinstance(m, arith._Memo)]
    caps = {id(m.cap): m.cap for m in kept}
    assert id(identities._ROWS) in caps and len(caps) > 1  # the rows and a series packing
    assert all(any(m is listed for listed in m.cap.values()) for m in kept)
    assert all(type(cap.most) is int for cap in caps.values())
    assert all(sum(map(len, cap.values())) <= cap.kept <= cap.most for cap in caps.values())
