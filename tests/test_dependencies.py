"""numpy is the only runtime dependency: every absolute import in the
package names a standard-library module or numpy.  Every exported name
resolves."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "skelgraph").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_package_imports_only_stdlib_and_numpy(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    foreign = [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not foreign, f"{source.name} imports {foreign}"


def test_package_sources_are_found():
    assert len(SOURCES) > 1


MODULES = ["skelgraph"] + [f"skelgraph.{p.stem}" for p in SOURCES if p.stem != "__init__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale export would be skipped silently by code that walks __all__
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
