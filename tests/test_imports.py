"""Every name a package module imports is used in that module, the
package exports exactly what `__init__.py` imports, and no package check is
an assert.

The package re-exports its public names from `__init__.py`, so that file
is left out of the import check, and its imports are held to `__all__`
instead; every other module imports only what it reads.  Every module
raises a typed error where a check fails, because `python -O` strips
`assert` and an `AssertionError` escapes the CLI's exit-code contract.
"""

import ast
import pathlib

import pytest

import commacat

PACKAGE = pathlib.Path(commacat.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(tree: ast.AST) -> list:
    """(name, line) for every name an import statement binds, in order."""
    return [(alias.asname or alias.name.split(".")[0], node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = dict(imported_names(tree))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_referenced(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom re import match, sub\nsub\n") == [
        "match (line 2)", "os (line 1)"]


def test_the_package_exports_what_it_imports():
    exported = commacat.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(commacat, name), name
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(name for name, _ in imported_names(init)) == sorted(exported)


def assertion_checks(source: str) -> list:
    """Lines of every assert statement and every raise of AssertionError."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_is_an_assertion(path):
    assert assertion_checks(path.read_text()) == []


def test_the_check_sees_an_assertion():
    assert assertion_checks(
        "assert x\nraise AssertionError('no')\nraise AssertionError\n"
        "raise ValueError('no')\n") == [1, 2, 3]
