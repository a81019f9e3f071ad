"""The package surface has no dead names: exports resolve, imports are used."""

import ast
from pathlib import Path

import pytest

import pptgeo

PACKAGE_DIR = Path(pptgeo.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's import statements (``__future__`` aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_every_export_resolves():
    missing = [name for name in pptgeo.__all__ if not hasattr(pptgeo, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(pptgeo.__all__) == len(set(pptgeo.__all__))


def test_package_exports_everything_it_imports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    assert sorted(imported_names(tree) - set(pptgeo.__all__)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []
