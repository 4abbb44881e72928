"""Every top-level import of a module in ``src/ordsgp`` is used there,
every top-level private name is used somewhere in the package, and every
default of a top-level private function is overridden by some call.

No linter ships with the toolchain, so these are three rules of one, read
from the syntax tree:

- unused imports: a name bound by a top-level ``import`` or
  ``from ... import`` must appear as a name somewhere in the module.
  ``__init__.py`` is skipped, since it imports in order to re-export.
- dead private names: a top-level ``_name`` bound by a ``def``, a
  ``class`` or an assignment must be loaded, as a name or an attribute,
  in some module of the package.  Dunders are exempt, and so are
  decorated definitions, which the decorator may register.
- settings that no caller sets: every defaulted parameter of a top-level
  private function must be passed, by position or by keyword, by some call
  of that name in the package; a call with ``*args`` or ``**kwargs``
  passes every parameter.  A default that no call overrides is a constant.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ordsgp"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def private_definitions(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def loaded_names(sources) -> set[str]:
    loaded = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def dead_private_names(source: str, package_sources) -> list[str]:
    loaded = loaded_names(package_sources)
    return [name for name in private_definitions(source) if name not in loaded]


def test_dead_private_names_are_found():
    module = (
        "import functools\n"
        "__all__ = []\n"
        "_LIMIT = 3\n"
        "_DEAD_SET = frozenset()\n"
        "_first, _second = 1, 2\n"
        "_TABLE: dict = {}\n"
        "def _helper():\n"
        "    return _first\n"
        "def _factory(s):\n"
        "    return lambda m: m\n"
        "class _Unused:\n"
        "    pass\n"
        "@functools.cache\n"
        "def _registered():\n"
        "    pass\n"
    )
    user = "import module\nfrom module import _helper\nprint(_helper(), module._LIMIT)\n"
    assert dead_private_names(module, [module, user]) == [
        "_DEAD_SET",
        "_second",
        "_TABLE",
        "_factory",
        "_Unused",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_top_level_private_name_is_loaded(path):
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert dead_private_names(path.read_text(encoding="utf-8"), sources) == []


def private_defaults(source: str) -> dict[str, list[tuple[int | None, str]]]:
    """For each top-level private function, its defaulted parameters as
    (position, name); position is None for a keyword-only one."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[:1] == "_":
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found[node.name] = [(p, positional[p].arg) for p in range(first, len(positional))] + [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
    return found


def unset_defaults(source: str, package_sources) -> list[str]:
    """The defaulted parameters, as ``function(parameter)``, of the
    module's top-level private functions that no call in the package
    passes."""
    defaults = private_defaults(source)
    passed = {name: set() for name in defaults}
    for tree in map(ast.parse, package_sources):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaults:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args)
            spread |= any(k.arg is None for k in node.keywords)
            keywords = {k.arg for k in node.keywords}
            passed[name] |= {
                param
                for p, param in defaults[name]
                if spread or param in keywords or p is not None and p < len(node.args)
            }
    return [
        f"{name}({param})"
        for name, params in defaults.items()
        for _, param in params
        if param not in passed[name]
    ]


def test_unset_defaults_are_found():
    module = (
        "def _f(a, b=1, *, c=2, d=3):\n"
        "    pass\n"
        "def _g(a=1, b=2):\n"
        "    pass\n"
        "def _h(a, /, b=0, c=0):\n"
        "    pass\n"
        "def _k(a=0, **kw):\n"
        "    pass\n"
        "def public(a=0):\n"
        "    pass\n"
    )
    user = "import module\n_f(0, c=1)\nmodule._g(*rest)\n_h(0, 1)\n_k(**kw)\n"
    assert unset_defaults(module, [module, user]) == ["_f(b)", "_f(d)", "_h(c)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_default_is_set_by_some_call(path):
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unset_defaults(path.read_text(encoding="utf-8"), sources) == []
