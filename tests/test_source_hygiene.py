"""Source hygiene: no module of the package, test or demo imports a name
it never uses, no function of the package stores a name it never loads,
no module of the package keeps process-global state, and importing the
job runner loads no introspection module.

`__init__.py` is exempt from the import scan: its imports are the
package's public API.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgkoszul"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


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


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [f"{p.parent.name}/{p.name}" for p in SCRIPTS],
)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_locals(source: str) -> list[str]:
    """Names that a function stores and never loads, in its own body or in
    a function nested in it; a name that starts with `_` is exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared, stack = {}, set(), list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
        loaded = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            (line, f"{name} in {func.name}")
            for name, line in stored.items()
            if name not in loaded and name not in declared and not name.startswith("_")
        ]
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_an_unused_local():
    source = (
        "def f(xs):\n    s, w = xs\n    for i, _j in xs:\n        pass\n"
        "    def g():\n        return s\n    return g\n"
        "def h():\n    n = 0\n    def bump():\n        nonlocal n\n        n += 1\n"
        "    bump()\n    return n\n"
    )
    assert unused_locals(source) == ["w in f (line 2)", "i in f (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_loads_every_local_it_stores(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


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


def private_definitions(trees: dict) -> list:
    """(module, node) for each function or class, at any depth, whose name
    starts with `_` and is not a dunder."""
    return [
        (name, node)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private functions and classes (see private_definitions) whose name
    no module loads or reads as an attribute."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{name}.{node.name} (line {node.lineno})"
        for name, node in private_definitions(trees)
        if node.name not in used
    ]


def test_the_scan_sees_an_unreferenced_private_definition():
    sources = {
        "a": "def _used(): pass\ndef _alone(): pass\nclass _Orphan:\n"
             "    def _method(self): pass\n    def __init__(self): pass\n",
        "b": "from a import _used\n_used()\ndef f(x):\n    def _inner(): pass\n"
             "    return x._method\n",
    }
    assert unreferenced_private(sources) == [
        "a._alone (line 2)",
        "a._Orphan (line 3)",
        "b._inner (line 4)",
    ]


def test_every_private_definition_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def global_state(source: str) -> list[str]:
    """`global` statements and functools caches (`lru_cache`, `cache`): state
    that outlives a job.  Per-job state lives on the job's rings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Global):
            found.append((node.lineno, f"global {', '.join(node.names)}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append((dec.lineno, f"@{name} on {node.name}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_global_state():
    source = (
        "import functools\nfrom functools import lru_cache\n_cap = 40\n"
        "def set_cap(c):\n    global _cap\n    _cap = c\n"
        "@lru_cache(maxsize=None)\ndef a(n): return n\n"
        "@functools.cache\ndef b(n): return n\n"
        "class C:\n    @property\n    def cache(self): return {}\n"
        "    @functools.lru_cache\n    def d(self): return self.cache\n"
    )
    assert global_state(source) == [
        "global _cap (line 5)",
        "@lru_cache on a (line 7)",
        "@cache on b (line 9)",
        "@lru_cache on d (line 14)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_no_process_global_state(path):
    assert global_state(path.read_text(encoding="utf-8")) == []


def test_importing_the_job_runner_loads_no_introspection_module():
    # `dataclasses` pulls in `inspect` (and with it `ast`, `dis` and
    # `tokenize`), which every start-up would pay for.  -S keeps
    # site-packages' start-up hooks out of the count.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import dgkoszul.jobs\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
