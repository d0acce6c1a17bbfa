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
import conftest
from conftest import empty_every_memo
from gradedwords import arith, cli, identities, series, words

MODULES = [gradedwords] + [
    importlib.import_module(f"gradedwords.{info.name}")
    for info in pkgutil.iter_modules(gradedwords.__path__)
]


# The package's public names.  A new one, an alias included, is added here.
PUBLIC = [
    "CATALOG", "DimensionMismatchError", "EvalReport", "GradedAlphabet",
    "GridExhaustedError", "IdentitySpec", "LemmaViolationError", "MultiIndex", "Overshoot",
    "PoleError", "PreconditionError", "PrefixCase", "RaneyFactorization", "Scalar",
    "TruncatedSeries", "Word", "WordClassSpec", "__version__", "box",
    "check_generating_function_1", "check_generating_function_2", "count_prefix_class",
    "count_words", "default_manifest", "dot", "enumerate_words", "exponents_up_to",
    "format_scalar", "functional_equation_residual", "main",
    "multi_factorial", "multinomial", "norm", "parse_scalar", "raney_factorize",
    "raney_unfactorize", "run_suite", "shift_by", "shift_down", "solve_functional_equation",
    "unit", "vec_sub", "verify_count", "verify_identity_at_point",
    "verify_identity_on_grid", "verify_raney_decomposition", "verify_raney_word",
    "verify_shift_bijection", "verify_shift_word", "verify_solution",
]

# names that only renamed another operation, and what replaced each:
# shift_up(w, p) -> shift_by(w, p, 1); Word.has_prefix_of_weight(r) ->
# prefix_cut(r) is not None; GradedAlphabet.letter_weights() -> .weights;
# TruncatedSeries.one / zero / constant_term -> constant(1, m, N) /
# TruncatedSeries(m, N) / coefficient((0,) * m); catalog_names() -> list(CATALOG);
# GradedAlphabet.letter_weight(code) -> .weights[code];
# identity_variables(name) -> CATALOG[name].variables;
# the per-identity evaluators, eval_abel_1 to check_mh_expansion ->
# verify_identity_at_point(IdentitySpec(name, n, z, i, j), point)
REMOVED_ALIASES = [
    "shift_up", "has_prefix_of_weight", "letter_weights", "one", "zero", "constant_term",
    "catalog_names", "letter_weight", "identity_variables",
    "eval_abel_1", "eval_abel_2", "eval_rothe_1", "eval_rothe_2", "eval_gould", "eval_jensen",
    "eval_raney_mohanty_1", "eval_raney_mohanty_2", "eval_mohanty_handa", "eval_gould_mohanty",
    "eval_gmh_special", "eval_kmx", "eval_kmpink", "eval_pkroth", "check_absorption",
    "check_rm2_decomposition", "check_mh_expansion",
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


def test_every_name_a_module_exports_has_a_caller_outside_it():
    # a name in a module's __all__ is the package's (gradedwords._EXPORTS), or
    # another module of the package imports it, directly or through the
    # command line's table of layers; a name only tests call is not exported
    root = Path(__file__).resolve().parent.parent / "src" / "gradedwords"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    exported = {
        module: ast.literal_eval(node.value)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
        and isinstance(node.value, ast.List)
    }
    imported = {
        (node.module, alias.name)
        for importer, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != importer
        for alias in node.names
    }
    layers = {(module, name) for module, names in cli._LAYERS.items() for name in names}
    unused = [
        f"{module}.{name}"
        for module, names in exported.items()
        for name in names
        if name not in gradedwords._EXPORTS.get(module, ())
        and (module, name) not in imported | layers
    ]
    assert "identities" in exported and unused == []


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


def test_no_module_generates_code():
    # every call into the package is written out in its source: no module
    # names exec, eval or compile, so none runs code it built as text
    root = Path(__file__).resolve().parent.parent / "src" / "gradedwords"
    found = [
        (path.name, node.lineno, node.id)
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in ("exec", "eval", "compile")
    ]
    assert found == []


def test_every_memo_is_bounded():
    # a memo that grows with its inputs can take the process's memory: every
    # memo of inputs is a _Memo, made only by the _Cap that bounds it, and
    # functools.cache memoizes only a function of no parameter, as a decorator
    root = Path(__file__).resolve().parent.parent / "src" / "gradedwords"
    trees = [ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))]
    cached = [node for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(ast.unparse(d) == "functools.cache" for d in node.decorator_list)]
    assert [node.name for node in cached] == ["_build_parser"]
    assert all(not ast.unparse(node.args) for node in cached)
    named = [ast.unparse(node) for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and getattr(node, "attr", getattr(node, "id", None)) in ("cache", "lru_cache")]
    assert named == ["functools.cache"]

    def memos_made(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "_Memo"]

    made = [call for tree in trees for call in memos_made(tree)]
    in_cap = [call for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "_Cap"
              for call in memos_made(node)]
    assert made and made == in_cap
    # each _Memo kept past a call, after the built-in suite ran, carries an
    # int cap that lists it, and the memos under one cap keep at most its
    # cap, or one value larger than it
    gradedwords.run_suite(gradedwords.default_manifest(), 1)
    gc.collect()
    kept = [m for m in gc.get_objects() if isinstance(m, arith._Memo)]
    caps = {id(m.cap): m.cap for m in kept}
    # the rows, the solved v, the four memos of inputs and a series packing
    memos = [arith._shape, words._table, identities._table, series._packing, series._solved]
    assert {id(identities._ROWS), *(id(memo.cap) for memo in memos)} < set(caps)
    assert all(any(m is listed for listed in m.cap.values()) for m in kept)
    assert all(type(cap.most) is int for cap in caps.values())
    assert all(sum(map(len, cap.values())) <= cap.kept <= cap.most
               or sum(map(len, cap.values())) == 1 for cap in caps.values())


def _reachable_memos() -> list:
    """Every _Memo reachable from a global of a module of the package through
    memos, caps, tuples, lists and dicts."""
    found, seen = [], set()
    stack = [value for module in MODULES for name, value in vars(module).items()
             if not name.startswith("__")]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, arith._Memo):
            found.append(value)
            stack.append(value.cap)
        if isinstance(value, arith._Cap):
            stack += value.values()
        elif isinstance(value, dict):
            stack += value.values()
        elif isinstance(value, (tuple, list)):
            stack += value
    return found


def test_empty_every_memo_empties_every_memo_the_modules_reach():
    # the fixture that empties memos before a planted fault names none: it
    # must reach each one, the rows of the terms tables and the maps of each
    # series packing included
    gradedwords.run_suite(gradedwords.default_manifest(), 1)
    series.solve_functional_equation((1, 2), 4)
    before = _reachable_memos()
    assert {id(identities._ROWS), id(series._packing.cap)} < {id(m.cap) for m in before}
    assert len({id(m.cap) for m in before}) > len({id(cap) for cap in conftest._CAPS})
    empty_every_memo()
    assert [memo for memo in _reachable_memos() if memo] == []
