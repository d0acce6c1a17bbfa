"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

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
