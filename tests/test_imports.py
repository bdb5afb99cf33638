"""Every name a package module imports is used in that module, and every
private name a module defines is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracbvp"
# __init__ imports names to export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == [], module


def test_unused_import_is_found():
    source = "from dataclasses import dataclass, field, fields, replace\n@dataclass\nclass A: pass\n"
    assert unused_imports(source) == ["field", "fields", "replace"]
    assert unused_imports("import numpy as np\nimport os.path\nnp.zeros(os.sep)\n") == []


def private_names(source: str) -> list[str]:
    """The module-level ``_name`` functions, classes and constants of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private name no module of ``sources`` reads."""
    read = set().union(*(read_names(source) for source in sources.values()))
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_names(source)
        if name not in read
    ]


def test_module_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_orphaned_private_name_is_found():
    sources = {
        "a.py": "_USED = 1\n_LEFT: int = 2\ndef _helper(): pass\nclass _Box: pass\n__all__ = []\n",
        "b.py": "from a import _helper\nimport a\nprint(a._USED)\n",
    }
    assert orphaned_private_names(sources) == ["a.py._LEFT", "a.py._Box"]
