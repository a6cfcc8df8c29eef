"""Source hygiene: no module of the package imports a name it never uses.

`__init__.py` is exempt: its imports are the package's public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgkoszul"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def uncalled(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Module-level functions and classes that nothing exports and no code
    outside their own definition refers to (by name or as an attribute)."""
    trees = {name: ast.parse(src) for name, src in sources.items()}

    def references(tree, skip=None) -> set[str]:
        out, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
        return out

    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(
                node.name in references(other, skip=node if other is tree else None)
                for other in trees.values()
            ):
                dead.append(f"{name}.{node.name}")
    return dead


def test_the_scan_sees_an_uncalled_definition():
    sources = {
        "a": "def used(): pass\ndef public(): pass\ndef _alone(n): return _alone(n - 1)\n",
        "b": "from a import used\nclass Orphan: pass\nclass Child(Base): pass\n"
             "def run(x): return x.method(used())\nclass Base: pass\n",
    }
    assert uncalled(sources, {"public", "run"}) == ["a._alone", "b.Orphan", "b.Child"]


def test_every_unexported_definition_has_a_caller():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert uncalled(sources, exported) == []
