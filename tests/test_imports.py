"""Every top-level import of a module in ``src/ordsgp`` is used there.

No linter ships with the toolchain, so this is the unused-import rule of
one, read from the syntax tree: a name bound by a top-level ``import`` or
``from ... import`` must appear as a name somewhere in the module.
``__init__.py`` is skipped, since it imports in order to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ordsgp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from itertools import chain, product as prod\n"
        "def f():\n"
        "    return os.sep, prod\n"
    )
    assert unused_imports(source) == ["osp", "chain"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
