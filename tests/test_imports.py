"""Every module-level import of the package and of the tests binds a name
its module uses, and every module-level definition is used somewhere in
the package.

``__init__.py`` is left out of the import check: its imports are the
package's re-exports, and they count as uses for the definition check.
"""

import ast
import pathlib

import pytest

import diracforge

SOURCES = sorted(pathlib.Path(diracforge.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))

# read by perfbench, which lies outside the package: run.py records
# BACKEND_NAME and RATIONAL_BACKEND, spans.py wraps the dense kernels and
# piCasimir
BENCHMARK_READ = {("matops", "BACKEND_NAME"), ("matops", "mul_real"),
                  ("matops", "mul_cplx"), ("matops", "rref_cplx"),
                  ("rationals", "RATIONAL_BACKEND"), ("dirac", "piCasimir")}


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


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.stem)
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    assert unused_imports("from __future__ import annotations\n"
                          "import os\nfrom a.b import c as d, e\n"
                          "import x.y\nprint(e, x.y)\n") == ["d", "os"]


def _credits(module, node, aliases):
    """(module, name) for each name the statement node of module uses: a
    name it mentions counts for module itself; a name imported from a
    package module, or read as an attribute of one (aliases maps a local
    name to the package module it binds), counts for that module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add((module, sub.id))
        elif isinstance(sub, ast.Attribute):
            out.add((module, sub.attr))
            if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                out.add((aliases[sub.value.id], sub.attr))
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1 \
                and sub.module is not None:
            out.update((sub.module, alias.name) for alias in sub.names)
    return out


def unreferenced_definitions(sources):
    """(module, name) for each module-level def, class or assignment in
    sources ({module: text}) that no other top-level statement uses.  A
    statement of the defining module uses a name by mentioning it; one of
    another module only by importing the name from the defining module or
    by reading it as an attribute of that module, so a same-named
    definition elsewhere does not hide an unused one."""
    statements = []
    defined = []
    for module, text in sources.items():
        tree = ast.parse(text)
        # "from . import m as alias" binds alias to the package module m
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        for node in tree.body:
            statements.append((node, _credits(module, node, aliases)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, ast.Assign):
                defined.extend((module, target.id, node)
                               for target in node.targets
                               if isinstance(target, ast.Name))
    return sorted((module, name) for module, name, node in defined
                  if module != "__init__"
                  and not any((module, name) in credits
                              for other, credits in statements
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
                    "class Spare: pass\n",
               # b's LIMIT and helper share names that a uses; only an
               # import from c or a read of c.name counts for c
               "b": "from . import c\n"
                    "from .c import imported\n"
                    "LIMIT = 4\n"
                    "def reader(): return c.read + imported\n",
               "c": "read = 1\nimported = 2\nunread = 3\n"
                    "def helper(): return unread\n"}
    assert unreferenced_definitions(sources) == [
        ("a", "Spare"), ("a", "recursive"), ("a", "tested_only"),
        ("b", "LIMIT"), ("b", "reader"), ("c", "helper")]


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


# the frame's layout is structure's: the other modules read a direction's
# units, the root pairs and RootSystem.coordinateOwner, never the kinds of
# direction names
KINDS = {"CARTAN", "ROOT_A", "ROOT_B"}


def kind_reads(source):
    """Each direction-kind constant that source names (bare, as an
    attribute or imported), and "names[][0]" where it reads the kind of a
    direction name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.slice, ast.Constant)
              and node.slice.value == 0
              and isinstance(node.value, ast.Subscript)
              and isinstance(node.value.value, ast.Attribute)
              and node.value.value.attr == "names"):
            found.add("names[][0]")
    return sorted(found & (KINDS | {"names[][0]"}))


def test_only_structure_knows_the_direction_kinds():
    reads = {path.stem: kind_reads(path.read_text()) for path in SOURCES
             if path.stem != "structure"}
    assert {stem: found for stem, found in reads.items() if found} == {}


def test_kind_read_is_found():
    assert kind_reads("from .structure import CARTAN\n"
                      "from . import structure\n"
                      "a = structure.ROOT_A\n"
                      "def f(frame, i):\n"
                      "    return ROOT_B, frame.names[i][0] == 'A'\n") \
        == ["CARTAN", "ROOT_A", "ROOT_B", "names[][0]"]
    assert kind_reads("CARTANS = 'ROOT_A'\n"
                      "def f(frame, i):\n"
                      "    return frame.names[i][1], frame.units[i][0]\n") \
        == []


# how a weight pairs, and how weights are keyed, is characters' own: the
# modules that build on cone series use its public names only
def private_reads(source, module="characters"):
    """Each _-prefixed name that source imports from the package module
    module, or reads as an attribute of it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").rpartition(".")[2] == module:
            found.update(alias.name for alias in node.names
                         if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == module and node.attr.startswith("_")):
            found.add(node.attr)
    return sorted(found)


def test_cone_series_users_import_nothing_private_from_characters():
    reads = {path.stem: private_reads(path.read_text()) for path in SOURCES
             if path.stem in ("qr", "polarized")}
    assert reads == {"qr": [], "polarized": []}


def test_private_read_is_found():
    assert private_reads("from .characters import (ConeSeries,\n"
                         "    _lattice_coords, _rational_weights)\n"
                         "from . import characters\n"
                         "from .liecore import _keep_index\n"
                         "keys = characters._keyed({}, 1)\n") \
        == ["_keyed", "_lattice_coords", "_rational_weights"]
    assert private_reads("from diracforge.characters import _translated\n") \
        == ["_translated"]
    assert private_reads("from .characters import ConeSeries\n"
                         "from . import characters\n"
                         "s = characters.sumSeries\n"
                         "_lattice_coords = 1\n") == []
