"""The package declares ``requires-python = ">=3.10"``, and CI runs a 3.10
leg.  ``ast.parse`` with ``feature_version=(3, 10)`` rejects grammar newer
than 3.10 (``except*``, PEP 695 type parameters, ...), so this checks the
syntax of every module on any newer interpreter.  It checks syntax only:
a standard-library function that 3.10 lacks is not found here.
"""

import ast
import pathlib

import pytest

import diracforge

SOURCES = sorted(pathlib.Path(diracforge.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
