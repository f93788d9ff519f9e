"""Every name a module of fpcredit imports is used in that module.

The package's `__init__.py` is exempt: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import fpcredit

MODULES = sorted(p for p in Path(fpcredit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports in `source` that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_each_unused_name():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nprint(pi, np)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
