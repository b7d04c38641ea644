"""Every name a module under src/hch imports is used in that module.

There is no linter in the toolchain, so this walks each module's syntax tree
with ``ast``: a name bound by an import must be read somewhere in the module,
named in ``__all__``, or appear in a string annotation.  Deleting the last
caller of an imported helper then fails here instead of leaving the import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hch"


def imported_names(tree):
    """{bound name: line} for every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.setdefault(name, node.lineno)
    return out


def used_names(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import List, Optional as Opt\n"
              "from .a import b, c\n"
              "__all__ = ['c']\n"
              "def f(x: 'List[int]') -> int:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(3, "Opt"), (4, "b")]
