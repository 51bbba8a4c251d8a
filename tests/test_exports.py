"""Public names stay importable: the package's __all__ and what the demos use."""

import ast
import importlib
from pathlib import Path

import pytest

import fair_experts

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_names_resolve():
    missing = [name for name in fair_experts.__all__ if not hasattr(fair_experts, name)]
    assert missing == []


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "fair_experts" or node.module.startswith("fair_experts.")
        ):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []
