"""The public surface: every exported name resolves."""

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
