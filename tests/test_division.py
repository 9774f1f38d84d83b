"""No true division in the package outside the dense kernel.

A weight coordinate is an int when it is integral, and an int divided by
an int with ``/`` is a float, which no exact payload may hold.  Exact
quotients go through ``rationals.rat`` or ``rationals.coord``.
``matops.py`` is the dense float-free kernel that divides Fractions only.
"""

import ast
import pathlib

import diracforge

SOURCES = sorted(pathlib.Path(diracforge.__file__).parent.glob("*.py"))


def divisions(source):
    """The line of each ``/`` or ``/=`` in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_no_true_division_outside_matops():
    found = {path.stem: divisions(path.read_text()) for path in SOURCES
             if path.stem != "matops"}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_division_is_found():
    assert divisions("a = 1 / 2\nb //= 3\nc /= 4\nd = e // f\n"
                     "g = '/'\n") == [1, 3]
