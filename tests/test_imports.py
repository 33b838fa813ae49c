"""Every name a weylcheb module imports is used in that module, and every
name the package exports resolves."""

import ast
from pathlib import Path

import pytest

import weylcheb

MODULES = sorted(Path(weylcheb.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that a module's imports bind and that no expression of it
    reads, sorted; a name listed in the module's __all__ counts as read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_unused_import_check_can_fail():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .rootsys import dot, reflection_element\n"
              "__all__ = ['np']\n"
              "def f(x: dot):\n    return x\n")
    assert unused_imports(source) == ["os", "reflection_element"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_every_exported_name_resolves():
    missing = [name for name in weylcheb.__all__
               if not hasattr(weylcheb, name)]
    assert missing == []
