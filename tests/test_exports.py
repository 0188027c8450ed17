"""Every exported name resolves.

Tools that walk a module's ``__all__`` (a tracer wrapping each public
function, say) fail on a stale entry, so a name removed from a module must
leave its ``__all__`` and the package imports too.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import audkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(audkit.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"audkit.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(audkit.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"audkit.{node.module}")
        for alias in node.names:
            assert getattr(audkit, alias.asname or alias.name) is getattr(source, alias.name)
            if hasattr(source, "__all__"):
                assert alias.name in source.__all__, f"{node.module}.{alias.name}"


def test_names_the_bench_observers_bind():
    # bench/tracing.py reads these by name at span close; a missing one
    # would only show there as a failed operation
    assert "max_iter" in inspect.signature(audkit.solve_rho1).parameters
    assert "arrival" in inspect.signature(audkit.rho1_value).parameters
    assert "iterations" in audkit.queue_core.Rho1Solution._fields  # a named tuple
    assert "iterations" in {f.name for f in dataclasses.fields(audkit.OffsetResult)}
