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


# --- definitions that nothing reads -------------------------------------------

ROOT = Path(weylcheb.__file__).resolve().parents[2]


def _defined(tree) -> set:
    """The names a module's top-level statements define, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read(tree) -> set:
    """The names an expression of the tree loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unread_definitions(sources: dict, outside: set) -> list:
    """The top-level definitions `module.name` of the modules in `sources`
    ({module: source}) that no module reads and that `outside` does not
    name, by bare name or as `module.name`; sorted."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name in _defined(tree)
                  if name not in read and name not in outside
                  and f"{mod}.{name}" not in outside)


def _outside_readers() -> set:
    """What reads the package from outside src: its __all__, the names in
    the README's library example, and the tracer's LAYERS."""
    from test_readme import readme_block
    from test_tracer_layers import _layers
    return (set(weylcheb.__all__)
            | _read(ast.parse(readme_block("Library example")))
            | {f"{mod}.{fn}" for mod, fn in _layers()})


def test_unread_definition_check_can_fail():
    sources = {"a": "X = 1\ndef f():\n    return X\n"
                    "def g():\n    pass\nclass K:\n    pass\n",
               "b": "from .a import g\ndef h():\n    return g()\n"}
    assert unread_definitions(sources, set()) == ["a.K", "a.f", "b.h"]
    assert unread_definitions(sources, {"f", "b.h"}) == ["a.K"]


def test_every_definition_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread_definitions(sources, _outside_readers()) == []
