"""Every module-level import of the package binds a name its module uses,
and every module-level definition is used somewhere in the package.

``__init__.py`` is left out of the import check: its imports are the
package's re-exports, and they count as uses for the definition check.
"""

import ast
import pathlib

import pytest

import diracforge

SOURCES = sorted(pathlib.Path(diracforge.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]

# read by perfbench, which lies outside the package: run.py records
# BACKEND_NAME and RATIONAL_BACKEND, spans.py wraps the dense kernels
BENCHMARK_READ = {("matops", "BACKEND_NAME"), ("matops", "mul_real"),
                  ("matops", "mul_cplx"), ("matops", "rref_cplx"),
                  ("rationals", "RATIONAL_BACKEND")}


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


def _names_in(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unreferenced_definitions(sources):
    """(module, name) for each module-level def, class or assignment in
    sources ({module: text}) whose name no other top-level statement of
    any module mentions."""
    statements = []
    defined = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            statements.append((node, _names_in(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, ast.Assign):
                defined.extend((module, target.id, node)
                               for target in node.targets
                               if isinstance(target, ast.Name))
    return sorted((module, name) for module, name, node in defined
                  if module != "__init__"
                  and not any(name in names for other, names in statements
                              if other is not node))


def test_every_definition_is_used_in_the_package():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert set(unreferenced_definitions(sources)) == BENCHMARK_READ


def test_unreferenced_definition_is_found():
    sources = {"__init__": "from .a import shown\n",
               "a": "LIMIT = 3\n"
                    "def shown(): return helper() + LIMIT\n"
                    "def helper(): return 1\n"
                    "def tested_only(): return 2\n"
                    "def recursive(n): return recursive(n - 1)\n"
                    "class Spare: pass\n"}
    assert unreferenced_definitions(sources) == [
        ("a", "Spare"), ("a", "recursive"), ("a", "tested_only")]


# ExactMatrix storage: integer numerator maps over one denominator, a
# format only exactmat may know
STORAGE = {"re", "im", "den"}


def storage_reads(source):
    """(line, attribute) for each access to an ExactMatrix storage
    attribute in source."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in STORAGE)


def test_storage_stays_inside_exactmat():
    reads = {path.stem: storage_reads(path.read_text()) for path in SOURCES
             if path.stem != "exactmat"}
    assert {stem: found for stem, found in reads.items() if found} == {}


def test_storage_read_is_found():
    assert storage_reads("import re\nre.compile('x')\n"
                         "def f(m, re, den):\n"
                         "    m.im = {}\n"
                         "    return m.re.get(0), m.den, re, den\n") \
        == [(4, "im"), (5, "den"), (5, "re")]


# exactmat eliminates on its own int rows: the dense kernel is the tests'
# reference, and no package module reaches it
def imported_names(source):
    """The last dotted part of every module source imports, and every
    name it imports from one."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rpartition(".")[2])
            names.update(alias.name for alias in node.names)
    return names


def test_no_package_module_imports_matops():
    importers = [path.stem for path in SOURCES
                 if "matops" in imported_names(path.read_text())]
    assert importers == []


def test_matops_import_is_found():
    for source in ("from . import matops\n", "from .matops import rref_cplx\n",
                   "import diracforge.matops\n",
                   "def f():\n    from diracforge import matops\n"):
        assert "matops" in imported_names(source)
    assert "matops" not in imported_names("import os\nmatops = 1\n")
