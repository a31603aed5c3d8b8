"""Every name a moritalab module imports is used in that module.

__init__.py re-exports what it imports and is left out; so is
`from __future__ import annotations`, which binds no name.
"""

import ast
from pathlib import Path

import pytest

import moritalab

MODULES = sorted(p for p in Path(moritalab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_the_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rnd\n"
        "from fractions import Fraction\n"
        "from .exactla import linear_combination, nrat\n"
        "def f(x: Fraction) -> int:\n"
        "    return nrat(os.path.sep)\n"
    )
    assert unused_imports(source) == ["linear_combination", "rnd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
