import ast
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import wlift

MODULES = sorted(info.name for info in pkgutil.iter_modules(wlift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deletion that leaves its name in __all__ breaks `import *` only
    module = importlib.import_module(f"wlift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"wlift.{name}.__all__ names undefined {missing}"


ROOT = Path(__file__).resolve().parents[1]
# read only by the acceptance criteria, which check the paper's claims
CRITERIA_ONLY = {"lifting.adjoint", "scores.probability_floor",
                 "scores.a_norm_inf", "scores.a_norm_2",
                 "scores.weighted_leverage_scores"}


def _loads(node, inside, names):
    """Add the names node loads, bare or as attributes, outside their own def."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name is not None and name not in inside:
        names.add(name)
    for child in ast.iter_child_nodes(node):
        _loads(child, inside, names)


def _loaded_names():
    """Every name the modules of src/ and bench/ read.

    Definitions, imports, strings and comments are no reads, nor is a
    definition's use of itself, nor the package __init__.py, which only
    re-exports.
    """
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "bench").rglob("*.py")):
        if path.name != "__init__.py":
            _loads(ast.parse(path.read_text()), frozenset(), names)
    return names


def _members(cls):
    """The public methods and properties a class defines itself."""
    kinds = (FunctionType, property, cached_property, classmethod,
             staticmethod)
    return [f"{cls.__name__}.{n}" for n, v in vars(cls).items()
            if not n.startswith("_") and isinstance(v, kinds)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_reader(name):
    # an exported name, or a method or property of an exported class,
    # that nothing reads is dead API
    module = importlib.import_module(f"wlift.{name}")
    loaded = _loaded_names()
    exports = getattr(module, "__all__", ())
    unread = [n for n in exports
              if n not in loaded and f"{name}.{n}" not in CRITERIA_ONLY]
    unread += [m for n in exports if inspect.isclass(getattr(module, n))
               for m in _members(getattr(module, n))
               if m.rsplit(".", 1)[1] not in loaded]
    assert not unread, f"wlift.{name}.__all__ names nothing reads: {unread}"


def test_complete_reads_every_solver_setting():
    # a SolverConfig field complete() never reads is a knob that does nothing
    tree = ast.parse((ROOT / "src" / "wlift" / "solver.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    settings = {node.target.id for node in defs["SolverConfig"].body
                if isinstance(node, ast.AnnAssign)}
    read = {node.attr for node in ast.walk(defs["complete"])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "config"}
    assert settings, "SolverConfig declares no fields"
    assert settings <= read, f"complete() never reads {sorted(settings - read)}"
