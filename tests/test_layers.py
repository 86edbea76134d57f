"""Import layering: the integrators and the initial data sit below the
measurements, the embedding and the run layer; the run layer sits below
the acceptance gate and the command, and the gate never reaches up to the
command.

Both module-level and function-level imports count, so a deferred import
cannot hide a cycle.

The benchmark's tracer names the functions and criteria it times; a name
that no longer resolves would read as a silent zero there, and a criterion
it does not name would go untimed, so the names are checked here too.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kgmlab
from kgmlab import checks

LOWER = ("kernel", "reduced", "full", "scenarios")
UPPER = {"diagnostics", "carleman", "run", "cli", "checks"}
MODULES = sorted(m.name for m in pkgutil.iter_modules(kgmlab.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def imported_modules(source: str) -> set[str]:
    """kgmlab modules that the module `source` imports, at any nesting depth."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
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


def source_of(name: str) -> str:
    return (Path(kgmlab.__file__).parent / f"{name}.py").read_text()


def imports_of(name: str) -> set[str]:
    return imported_modules(source_of(name))


@pytest.mark.parametrize("name", LOWER)
def test_lower_layers_import_nothing_above_them(name):
    assert not imports_of(name) & UPPER


@pytest.mark.parametrize("name, above", [
    ("run", {"cli", "checks"}),
    ("checks", {"cli"}),
], ids=["run", "checks"])
def test_run_layer_and_gate_never_import_the_command(name, above):
    assert not imports_of(name) & above


def test_import_scan_sees_nested_imports():
    source = (
        "from .kernel import Grid1D\n"
        "def deferred():\n"
        "    from . import checks\n"
        "    import kgmlab.run\n"
    )
    assert imported_modules(source) == {"kernel", "checks", "run"}


@pytest.mark.parametrize("name", MODULES)
def test_no_function_level_imports(name):
    # every dependency shows at the top of its module
    nested = [node.lineno
              for fn in ast.walk(ast.parse(source_of(name)))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested


@pytest.mark.parametrize("name", ["kgmlab"] + [f"kgmlab.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def tracer_constant(name: str):
    """The literal bound to `name` at the top of the benchmark's tracer,
    read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not bound in {TRACER.name}")


def test_benchmark_traces_only_names_that_exist():
    traced = tracer_constant("TRACED")
    missing = [f"{layer}.{name}" for layer, names in traced.items()
               for name in names
               if not hasattr(importlib.import_module(f"kgmlab.{layer}"), name)]
    assert not missing
    # every criterion is traced, so a new one cannot land untimed
    assert set(tracer_constant("CRITERIA")) == {name for name, _ in checks.CRITERIA}
