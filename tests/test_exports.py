"""Public names stay importable: the package's __all__, what the demos use
and what the README names."""

import ast
import importlib
import re
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


README = Path(__file__).resolve().parent.parent / "README.md"
# a README code span naming a package attribute: `Name.attr`, a call's () aside
_SPAN = re.compile(r"`([A-Z]\w*(?:\.\w+)+)(?:\(\))?`")


def _resolves(dotted):
    obj = fair_experts
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_resolve():
    spans = sorted(set(_SPAN.findall(README.read_text(encoding="utf-8"))))
    assert len(spans) >= 7
    assert [span for span in spans if not _resolves(span)] == []


@pytest.mark.parametrize("span", ["`Trace.from_records`", "`RoundRecord.compute`",
                                  "`ExpertModel.predict`", "`Scenario.nope()`"])
def test_readme_guard_catches_stale_names(span):
    assert [not _resolves(name) for name in _SPAN.findall(span)] == [True]


@pytest.mark.parametrize("name", [
    "RoundRecord", "Outcome", "outcome_code", "outcome_from_code", "outcome_from_token", "loss_of",
    "validate_distribution", "uniform_distribution", "make_expert", "ExpertModel.predict",
    "Trace.from_records", "Trace.record", "Trace.records", "Trace.__iter__", "Trace.T",
    "Trace.group_counts",
])
def test_one_row_surface_is_gone(name):
    # rows enter only as blocks; each of these was a one-row copy of a block rule
    head, _, attr = name.rpartition(".")
    for module in (fair_experts, fair_experts.types, fair_experts.experts):
        owner = getattr(module, head, None) if head else module
        assert owner is None or not hasattr(owner, attr), f"{module.__name__}.{name}"
