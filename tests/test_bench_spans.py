"""Every per-layer span of the benchmark names a function of this package.

``perfbench/spans.py`` times the package from outside: its ``SPANS``
table lists (span, module, attribute) triples, and a triple that no longer
resolves is reported as an absent (null) metric.  This test reads the
table from the file's source and imports the named modules; it executes
nothing of ``spans.py`` and wraps no function, so a rename or deletion
that would blind a layer fails here.
"""

import ast
import importlib
import pathlib
import types

SPANS_FILE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "spans.py"


def read_spans():
    tree = ast.parse(SPANS_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS table in %s" % SPANS_FILE)


def resolve(modname, attr):
    """The function the benchmark would wrap, or None (as it reads it)."""
    module = importlib.import_module(modname)
    owner_name, _, member = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        return None if owner is None else vars(owner).get(member)
    return getattr(module, member, None)


def test_spans_table_is_read():
    spans = read_spans()
    assert len(spans) > 30
    assert ("dirac.cubicDirac", "diracforge.dirac", "cubicDirac") in spans


def test_every_span_resolves_to_a_function():
    missing = []
    for name, modname, attr in read_spans():
        fn = resolve(modname, attr)
        if not isinstance(fn, types.FunctionType):
            missing.append(name)
    assert missing == []
