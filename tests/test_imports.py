"""Every module-level import of the package binds a name its module uses.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import diracforge

MODULES = sorted(path for path in pathlib.Path(diracforge.__file__).parent
                 .glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue  # a compiler directive, not a name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    assert unused_imports("from __future__ import annotations\n"
                          "import os\nfrom a.b import c as d, e\n"
                          "import x.y\nprint(e, x.y)\n") == ["d", "os"]
