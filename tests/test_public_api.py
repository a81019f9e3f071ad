"""The package surface has no dead names: exports resolve and have a user
outside the unit tests, and imports are used."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import pptgeo

PACKAGE_DIR = Path(pptgeo.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE_DIR.parent.parent
# Code that uses the library for real: the package itself, the scripts, the
# benchmark and the acceptance criteria.  The unit tests do not count.
USER_FILES = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "pptbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's import statements (``__future__`` aside)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def references(path: Path) -> list[tuple[str, str | None]]:
    """(name, owner) of every name, attribute or string constant in a file
    that could refer to an export (the benchmark's tracer names its targets
    as strings).  The owner is the package-level definition the reference
    sits in, or None.  Importing or catching a name is not a use of it, so
    imports and `except` clauses are skipped."""
    refs = []
    for stmt in ast.parse(path.read_text()).body:
        owner = None
        if path.parent == PACKAGE_DIR:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                owner = stmt.targets[0].id
        caught = {id(n) for h in ast.walk(stmt) if isinstance(h, ast.ExceptHandler) and h.type
                  for n in ast.walk(h.type)}
        for node in ast.walk(stmt):
            if id(node) in caught:
                continue
            if isinstance(node, ast.Name):
                refs.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, owner))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append((node.value, owner))
    return refs


def exported_members() -> set[str]:
    """Names of the public methods and properties of the exported classes."""
    classes = [obj for obj in map(pptgeo.__dict__.get, pptgeo.__all__) if isinstance(obj, type)]
    return {name for cls in classes for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))}


def test_every_export_has_a_non_test_user():
    # An export, or a public method or property of an exported class, is used
    # when code outside its own definition refers to it; a reference inside
    # another export counts only once that one is used.
    exports = set(pptgeo.__all__) - {"__version__"}
    names = exports | exported_members()
    refs = [(name, owner) for path in USER_FILES for name, owner in references(path)
            if name in names and name != owner]
    used = set()
    while True:
        now = {name for name, owner in refs if owner not in exports or owner in used}
        if now == used:
            break
        used = now
    assert sorted(names - used) == []


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


def test_benchmarks_name_only_what_the_package_has():
    # benchmarks/ lies outside testpaths, so a renamed helper would break it
    # without a tier-1 failure: every name it imports from pptgeo, and every
    # attribute it takes of a pptgeo module (`harness._pt_tally`), must exist.
    missing = []
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pptgeo"):
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    if node.module == "pptgeo" and inspect.ismodule(getattr(owner, alias.name, None)):
                        modules[alias.asname or alias.name] = getattr(owner, alias.name)
                    elif not hasattr(owner, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
        missing += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)]
    assert missing == []
