"""Import layering: the integrators and the initial data sit below the
measurements, the embedding and the driver, and never reach up to them.

Both module-level and function-level imports count, so a deferred import
cannot hide a cycle.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import kgmlab

LOWER = ("kernel", "reduced", "full", "scenarios")
UPPER = {"diagnostics", "carleman", "cli", "checks"}


def imported_modules(name: str) -> set[str]:
    """kgmlab modules that module `name` imports, at any nesting depth."""
    tree = ast.parse((Path(kgmlab.__file__).parent / f"{name}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("kgmlab"):
                    continue
                module = module.removeprefix("kgmlab").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                # `from . import x` imports the sibling modules by name
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("kgmlab."))
    return found


@pytest.mark.parametrize("name", LOWER)
def test_lower_layers_import_nothing_above_them(name):
    assert not imported_modules(name) & UPPER


def test_import_scan_sees_nested_imports():
    # cli imports checks inside a function only
    assert {"checks", "diagnostics", "carleman"} <= imported_modules("cli")
