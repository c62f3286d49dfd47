"""Every module of the package uses each name its top-level imports bind.

A stdlib stand-in for a linter's unused-import rule: a name counts as
used when it is read anywhere in the module.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isingdimer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nx = sep\n"
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
