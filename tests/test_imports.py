"""Every name a package module, test file or tool imports is read; the
package's ``__init__.py`` is left out, since its imports are the
package's re-exports."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mhmppi"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))
MODULES += sorted((TESTS.parent / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each name an import of ``source`` binds and no
    expression of it reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom .x import a, b as c\nos.sep, c"
    assert unused_imports(source) == ["3: a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
