"""Every ``src/repro`` module must have an importer besides its package.

A module that only its own package ``__init__`` imports (to re-export its
names) runs for nobody: no job, CLI, server, benchmark or example path
reaches it, and its own tests keep it looking alive.  This guard reads
the real import graph of ``src/``, ``benchmarks/`` and ``examples/`` with
:mod:`ast` and fails on any such module, so dead substrate cannot grow
back.

Imports inside a package ``__init__`` are re-exports, not uses.  Importing
a re-exported name — ``from repro.server import LinkageServer``, or a name
in a package's lazy ``_EXPORTS`` table — counts as a use of the module the
name comes from.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
IMPORTER_ROOTS = (SRC, ROOT / "benchmarks", ROOT / "examples")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package_of(path: Path) -> str:
    name = _module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _absolute(node: ast.ImportFrom, package: str) -> Optional[str]:
    """The absolute module an ``ImportFrom`` names, or ``None`` outside src."""
    if not node.level:
        return node.module
    if not package:
        return None
    base = package.split(".")
    if node.level > 1:
        base = base[: -(node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _lazy_exports(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``name -> module`` pairs of a module-level ``_EXPORTS = {...}`` table."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS"
                    for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                    yield key.value, value.value


class ImportGraph:
    def __init__(self) -> None:
        inits = sorted(SRC.glob("repro/**/__init__.py"))
        self.modules = {
            _module_name(path)
            for path in SRC.glob("repro/**/*.py")
            if path.name != "__init__.py"
        }
        #: package -> exported name -> (defining module, its name there).
        self.reexports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for path in inits:
            package = _module_name(path)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            table = self.reexports.setdefault(package, {})
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    source = _absolute(node, package)
                    for alias in node.names:
                        table[alias.asname or alias.name] = (source, alias.name)
            for name, source in _lazy_exports(tree):
                table[name] = (source, name)

    def resolve(self, source: str, name: str) -> Set[str]:
        """The modules ``from source import name`` uses."""
        if f"{source}.{name}" in self.modules:
            return {f"{source}.{name}"}
        if source in self.modules:
            return {source}
        target = self.reexports.get(source, {}).get(name)
        if target is None or target[0] == source:
            return set()
        return self.resolve(*target)

    def uses(self, path: Path) -> Set[str]:
        """The modules one importer file uses (nothing, for an ``__init__``)."""
        if path.name == "__init__.py" and SRC in path.parents:
            return set()
        package = _package_of(path) if SRC in path.parents else ""
        used: Set[str] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(node, package)
                if source is not None:
                    for alias in node.names:
                        used |= self.resolve(source, alias.name)
        return used


@lru_cache(maxsize=None)
def _graph() -> ImportGraph:
    return ImportGraph()


@lru_cache(maxsize=None)
def _used() -> FrozenSet[str]:
    """Every module some file of ``src/``, ``benchmarks/`` or ``examples/``
    uses (package ``__init__`` re-exports excepted)."""
    graph = _graph()
    used: Set[str] = set()
    for root in IMPORTER_ROOTS:
        for path in root.rglob("*.py"):
            used |= graph.uses(path)
    return frozenset(used)


@pytest.mark.parametrize(
    "module",
    sorted(
        module
        for module in _graph().modules
        if module.rpartition(".")[2] != "__main__"
    ),
)
def test_module_has_an_importer_besides_its_package(module):
    assert module in _used(), f"{module} is imported by nothing but its package"


def test_a_re_exported_name_counts_as_a_use_of_its_module():
    # ``repro.server.app`` is reached only as ``from repro.server import
    # LinkageServer``; the lazy ``_EXPORTS`` table resolves the same way.
    graph = _graph()
    assert graph.resolve("repro.server", "LinkageServer") == {"repro.server.app"}
    assert graph.resolve("repro.runtime", "ShardPlan") == {
        "repro.runtime.sharding"
    }
    assert graph.resolve("repro.runtime", "sharding") == {"repro.runtime.sharding"}
