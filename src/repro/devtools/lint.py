"""``repro lint`` — the repo's prose contracts as AST-enforced rules.

Eight PRs of guarantees (determinism oracles, layered imports,
shared-memory lifecycle brackets, pickle-safe process
boundaries) lived only in ARCHITECTURE.md prose and in tests that catch
breakage *after* it ships.  This module turns them into a
project-specific static-analysis pass: each contract is a registered
rule with a stable ``RLxxx`` code, checked purely at the AST level (no
imports of the linted code), with file/line diagnostics, inline
suppressions and a committed waiver file.

Rules
-----
RL001 *determinism*
    No wall-clock or ambient-randomness **calls** (``time.time`` /
    ``time.monotonic`` / ``datetime.now`` / module-level ``random.*`` /
    unseeded ``random.Random()``) in the deterministic layers
    (``engine``, ``joins``, ``runtime``, ``core``).
    Injectable clocks (a ``clock=time.perf_counter`` *default*, never a
    hard-wired call driving control flow), ``random.Random(seed)`` and
    ``time.perf_counter()`` wall-time *measurement* stay legal;
    ``datagen`` / ``bench`` are out of scope.
RL002 *layering*
    Imports must flow down the layer order ``engine/similarity/stats ←
    datagen ← joins ← core ← runtime ← jobs ← linkage ←
    server/bench ← cli`` (an arrow means "may be imported by"); upward
    imports are only legal inside ``if TYPE_CHECKING:`` blocks.
RL004 *resource lifecycle*
    Every ``SharedMemory(create=True)`` and every zero-argument
    ``.attach()`` handle acquisition must be dominated by a
    ``try``/``finally`` (or an ``except`` cleanup that re-raises, or a
    ``with`` block) reaching ``close()`` / ``unlink()`` on the acquired
    name, in the same statement block (PR 8's segment-lifecycle
    bracket).  Returning the fresh handle transfers ownership to the
    caller, whose own binding is then checked.
RL005 *pickle boundary*
    Classes in :data:`repro.devtools.pickle_boundary.PICKLE_BOUNDARY`
    cross the process boundary by pickle: they may not be defined
    inside a function (local classes do not pickle) and may not carry
    lambda fields or defaults (class-level assignments and ``__init__``
    parameter defaults are checked).
RL006 *frozen mutation*
    ``object.__setattr__`` — the frozen-dataclass escape hatch — is
    legal only inside ``__post_init__`` / ``__setstate__``.

Suppressions
------------
Three escape hatches, from narrowest to widest:

* inline: a ``# repro-lint: disable=RL004`` comment (comma-separated
  codes, or ``disable=all``) on the flagged line;
* waiver file: ``<path glob> <CODE> <reason…>`` lines in
  ``.repro-lint.waivers`` at the invocation root (``--waivers`` points
  elsewhere, ``--no-waivers`` ignores it) — waived findings are
  reported in the summary but do not fail the run;
* fixtures: ``tests/devtools/fixtures`` is excluded from directory
  walks (explicitly listed files are always linted), so the linter's
  own bad-example corpus cannot fail the self-check.

A ``# repro-lint: module=<dotted.name>`` comment in the first ten lines
overrides the module identity derived from the file path — how the
fixture corpus poses as in-layer modules.

Usage: ``repro lint src tests benchmarks examples`` or
``python -m repro.devtools.lint <paths…> [--format text|github]``.
Exit codes: 0 clean, 1 findings, 2 usage errors.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.pickle_boundary import registry_by_module

__all__ = [
    "Diagnostic",
    "Rule",
    "RULES",
    "Waiver",
    "check_file",
    "iter_python_files",
    "lint_paths",
    "load_waivers",
    "main",
]


# -- layer order (RL002) ---------------------------------------------------------

#: Rank of each first-level package under ``repro``; a module may import
#: only packages of rank ≤ its own.  ``devtools`` is rank 0 by contract
#: (it polices the graph, so it must not participate in it); the root
#: package (``repro/__init__``) and ``__main__`` are the public surface
#: re-exporting everything and are exempt.
LAYER_RANKS: Dict[str, int] = {
    "devtools": 0,
    "engine": 0,
    "similarity": 0,
    "stats": 0,
    "datagen": 1,
    "joins": 2,
    "core": 3,
    "runtime": 4,
    "jobs": 5,
    "linkage": 6,
    "server": 7,
    "bench": 7,
    "cli": 8,
}

#: Layers in which RL001 bans ambient clocks/randomness.
DETERMINISTIC_LAYERS: Tuple[str, ...] = (
    "repro.engine",
    "repro.joins",
    "repro.runtime",
    "repro.core",
)

#: Fully qualified call targets RL001 rejects outright.  Note that
#: ``time.perf_counter`` / ``time.sleep`` are absent on purpose: the
#: runtime uses them for wall-time *measurement* and injectable-default
#: plumbing, never to steer join decisions.
BANNED_CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Directory suffixes pruned from directory walks (explicit file
#: arguments bypass this): the linter's own bad-example corpus.
DEFAULT_EXCLUDES: Tuple[str, ...] = ("tests/devtools/fixtures",)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_MODULE_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*module=([A-Za-z0-9_.]+)")


# -- data model ------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, and what the contract says."""

    path: str
    line: int
    col: int
    code: str
    message: str
    waived: bool = False

    def as_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_github(self) -> str:
        """A GitHub Actions workflow command (inline PR annotation)."""
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.code}::{self.message}"
        )


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    code: str
    summary: str
    check: Callable[["FileContext"], Iterator[Diagnostic]]


RULES: List[Rule] = []


def _register(code: str, summary: str) -> Callable[
    [Callable[["FileContext"], Iterator[Diagnostic]]],
    Callable[["FileContext"], Iterator[Diagnostic]],
]:
    def decorator(
        check: Callable[["FileContext"], Iterator[Diagnostic]]
    ) -> Callable[["FileContext"], Iterator[Diagnostic]]:
        RULES.append(Rule(code, summary, check))
        return check

    return decorator


@dataclass
class FileContext:
    """Everything the rules need about one parsed file."""

    path: Path
    display: str
    module: Optional[str]
    tree: ast.Module
    lines: List[str]
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    type_checking: Set[ast.AST] = field(default_factory=set)
    imports: Dict[str, str] = field(default_factory=dict)
    suppressed: Dict[int, Set[str]] = field(default_factory=dict)

    def diagnostic(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Diagnostic(self.display, line, col, code, message)

    def is_suppressed(self, diag: Diagnostic) -> bool:
        codes = self.suppressed.get(diag.line)
        return bool(codes) and ("all" in codes or diag.code in codes)


# -- file context construction ---------------------------------------------------


def _derive_module(path: Path) -> Optional[str]:
    """Dotted module name for files under a ``repro`` package root."""
    parts = list(path.parts)
    for index, part in enumerate(parts):
        if part == "repro" and index > 0 and parts[index - 1] == "src":
            dotted = parts[index:]
            break
    else:
        return None
    if dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def _collect_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    suppressed: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            codes = {code.strip() for code in match.group(1).split(",")}
            suppressed[number] = {c.lower() if c.lower() == "all" else c
                                  for c in codes if c}
    return suppressed


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
        and isinstance(test.value, ast.Name)
        and test.value.id == "typing"
    )


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name → fully qualified origin, for top-of-chain resolution."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def build_context(
    path: Path, source: str, display: Optional[str] = None
) -> FileContext:
    """Parse ``source`` and assemble the shared per-file rule context."""
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    module = _derive_module(path)
    for text in lines[:10]:
        pragma = _MODULE_PRAGMA_RE.search(text)
        if pragma:
            module = pragma.group(1)
            break
    ctx = FileContext(
        path=path,
        display=display or _display_path(path),
        module=module,
        tree=tree,
        lines=lines,
        imports=_collect_imports(tree),
        suppressed=_collect_suppressions(lines),
    )
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            ctx.parents[child] = node
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for stmt in node.body:
                ctx.type_checking.add(stmt)
                for descendant in ast.walk(stmt):
                    ctx.type_checking.add(descendant)
    return ctx


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


# -- shared AST helpers ----------------------------------------------------------


def _qualified_name(ctx: FileContext, node: ast.expr) -> Optional[str]:
    """Dotted origin of a ``Name``/``Attribute`` chain, via the import table."""
    chain: List[str] = []
    cursor: ast.expr = node
    while isinstance(cursor, ast.Attribute):
        chain.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    head = ctx.imports.get(cursor.id)
    if head is None:
        return None
    chain.append(head)
    return ".".join(reversed(chain))


def _enclosing_statement(ctx: FileContext, node: ast.AST) -> Optional[ast.stmt]:
    cursor: Optional[ast.AST] = node
    while cursor is not None and not isinstance(cursor, ast.stmt):
        cursor = ctx.parents.get(cursor)
    return cursor


def _containing_block(
    ctx: FileContext, stmt: ast.stmt
) -> Optional[List[ast.stmt]]:
    parent = ctx.parents.get(stmt)
    if parent is None:
        return None
    for _field, value in ast.iter_fields(parent):
        if isinstance(value, list) and stmt in value:
            return value
    return None


def _enclosing_function(
    ctx: FileContext, node: ast.AST
) -> Optional[ast.AST]:
    cursor = ctx.parents.get(node)
    while cursor is not None:
        if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return cursor
        cursor = ctx.parents.get(cursor)
    return None


# -- RL001: determinism ----------------------------------------------------------


def _in_deterministic_layer(module: Optional[str]) -> bool:
    return module is not None and any(
        module == layer or module.startswith(layer + ".")
        for layer in DETERMINISTIC_LAYERS
    )


@_register(
    "RL001",
    "no ambient clocks or unseeded randomness in the deterministic layers",
)
def _rule_determinism(ctx: FileContext) -> Iterator[Diagnostic]:
    if not _in_deterministic_layer(ctx.module):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualname = _qualified_name(ctx, node.func)
        if qualname is None:
            continue
        if qualname in BANNED_CLOCK_CALLS:
            yield ctx.diagnostic(
                node,
                "RL001",
                f"call to {qualname}() in deterministic layer "
                f"'{ctx.module}': inject a clock instead (accept a "
                f"clock callable, default time.perf_counter, and call "
                f"the injected one)",
            )
        elif qualname.startswith("random."):
            target = qualname.split(".", 1)[1]
            if target == "Random":
                if node.args or node.keywords:
                    continue  # random.Random(seed) — seeded, deterministic
                message = (
                    "unseeded random.Random() in deterministic layer "
                    f"'{ctx.module}': pass an explicit seed"
                )
            elif target == "SystemRandom":
                message = (
                    "random.SystemRandom is nondeterministic by design; "
                    "use random.Random(seed)"
                )
            elif "." in target:
                continue  # rng.random() on a local instance, not the module
            else:
                message = (
                    f"module-level random.{target}() uses the shared "
                    f"unseeded generator in deterministic layer "
                    f"'{ctx.module}': use a random.Random(seed) instance"
                )
            yield ctx.diagnostic(node, "RL001", message)


# -- RL002: layering -------------------------------------------------------------


def _layer_of(module: Optional[str]) -> Optional[Tuple[str, int]]:
    if not module or not module.startswith("repro."):
        return None
    first = module.split(".")[1]
    rank = LAYER_RANKS.get(first)
    if rank is None:
        return None
    return first, rank


def _imported_repro_modules(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                yield alias.name
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "repro":
            # `from repro import runtime` names the subpackage directly.
            for alias in node.names:
                yield f"repro.{alias.name}"
        elif node.module.startswith("repro."):
            yield node.module


@_register(
    "RL002",
    "imports must flow down the layer order (engine → … → cli); "
    "upward only under TYPE_CHECKING",
)
def _rule_layering(ctx: FileContext) -> Iterator[Diagnostic]:
    own = _layer_of(ctx.module)
    if own is None:
        return
    own_name, own_rank = own
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if node in ctx.type_checking:
            continue
        for target in _imported_repro_modules(node):
            layer = _layer_of(target)
            if layer is None:
                continue
            target_name, target_rank = layer
            if target_name == own_name or target_rank <= own_rank:
                continue
            yield ctx.diagnostic(
                node,
                "RL002",
                f"layering violation: {ctx.module} (layer '{own_name}') "
                f"imports {target} (layer '{target_name}', "
                f"{target_rank - own_rank} level(s) up); imports must "
                f"flow engine → joins → core → runtime → jobs → linkage "
                f"→ server/bench → cli — gate type-only imports behind "
                f"TYPE_CHECKING or move the shared code down a layer",
            )


# -- RL004: resource lifecycle ---------------------------------------------------


def _is_shared_memory_create(node: ast.Call) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name != "SharedMemory":
        return False
    return any(
        kw.arg == "create"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in node.keywords
    )


def _is_bare_attach(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "attach"
        and not node.args
        and not node.keywords
    )


def _closes_name(try_node: ast.Try, name: str) -> bool:
    """Whether a ``finally`` or ``except`` arm calls ``name.close/unlink``."""
    bodies: List[ast.stmt] = list(try_node.finalbody)
    for handler in try_node.handlers:
        bodies.extend(handler.body)
    for stmt in bodies:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("close", "unlink", "release")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
    return False


def _assigned_name(stmt: ast.stmt) -> Optional[str]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


def _lifecycle_protected(ctx: FileContext, call: ast.Call) -> bool:
    # `with SharedMemory(...)` / `with x.attach() as ...` — a context
    # manager brackets the lifetime by construction.
    cursor: Optional[ast.AST] = call
    while cursor is not None:
        parent = ctx.parents.get(cursor)
        if isinstance(parent, ast.withitem) and parent.context_expr is cursor:
            return True
        if isinstance(parent, ast.stmt):
            break
        cursor = parent
    stmt = _enclosing_statement(ctx, call)
    if stmt is None:
        return False
    if isinstance(stmt, ast.Return):
        return True  # ownership transferred to the caller's binding
    name = _assigned_name(stmt)
    if name is None:
        return False  # handle discarded or bound to a complex target
    # (a) a later statement in the same block brackets it:
    #     x = SharedMemory(create=True); try: … finally: x.close()
    block = _containing_block(ctx, stmt)
    if block is not None:
        for follower in block[block.index(stmt) + 1:]:
            if isinstance(follower, ast.Try) and _closes_name(follower, name):
                return True
    # (b) the assignment already sits inside a try whose finally/except
    #     arms reach close()/unlink() on the name.
    cursor = stmt
    while cursor is not None:
        parent = ctx.parents.get(cursor)
        if isinstance(parent, ast.Try) and cursor in parent.body:
            if _closes_name(parent, name):
                return True
        cursor = parent
    return False


@_register(
    "RL004",
    "SharedMemory(create=True) / .attach() must be bracketed by "
    "try/finally (or with) reaching close()/unlink()",
)
def _rule_resource_lifecycle(ctx: FileContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if _is_shared_memory_create(node):
            what = "SharedMemory(create=True)"
        elif _is_bare_attach(node):
            what = ".attach()"
        else:
            continue
        if not _lifecycle_protected(ctx, node):
            yield ctx.diagnostic(
                node,
                "RL004",
                f"{what} acquires a shared-memory handle without a "
                f"dominating try/finally (or with) that reaches "
                f"close()/unlink(): a failure between acquisition and "
                f"cleanup leaks the segment (see ARCHITECTURE.md "
                f"'Shard handoff')",
            )


# -- RL005: pickle boundary ------------------------------------------------------


def _lambda_findings(
    ctx: FileContext, value: ast.expr, class_name: str, where: str
) -> Iterator[Diagnostic]:
    for node in ast.walk(value):
        if isinstance(node, ast.Lambda):
            yield ctx.diagnostic(
                node,
                "RL005",
                f"{class_name} crosses the process boundary by pickle "
                f"but carries a lambda {where}: lambdas do not pickle — "
                f"use a module-level function",
            )


@_register(
    "RL005",
    "process-boundary classes may not carry lambda/closure/local-class "
    "fields or defaults",
)
def _rule_pickle_boundary(ctx: FileContext) -> Iterator[Diagnostic]:
    if ctx.module is None:
        return
    registered = registry_by_module().get(ctx.module)
    if not registered:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in registered:
            continue
        if _enclosing_function(ctx, node) is not None:
            yield ctx.diagnostic(
                node,
                "RL005",
                f"{node.name} is registered as a process-boundary class "
                f"but is defined inside a function: local classes do "
                f"not pickle — define it at module level",
            )
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
                yield from _lambda_findings(
                    ctx, stmt.value, node.name, "field default"
                )
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                defaults = list(stmt.args.defaults) + [
                    d for d in stmt.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    yield from _lambda_findings(
                        ctx, default, node.name, "__init__ default"
                    )


# -- RL006: frozen mutation ------------------------------------------------------


@_register(
    "RL006",
    "object.__setattr__ only inside __post_init__/__setstate__",
)
def _rule_frozen_mutation(ctx: FileContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            continue
        function = _enclosing_function(ctx, node)
        name = getattr(function, "name", None)
        if name in ("__post_init__", "__setstate__"):
            continue
        yield ctx.diagnostic(
            node,
            "RL006",
            "object.__setattr__ outside __post_init__/__setstate__: "
            "mutating a frozen dataclass elsewhere breaks the "
            "immutability contract its consumers (hashing, sharing "
            "across threads, pickling) rely on",
        )


# -- waivers ---------------------------------------------------------------------


@dataclass(frozen=True)
class Waiver:
    """One committed exemption: a path glob, a rule code, and its why."""

    pattern: str
    code: str
    reason: str

    def covers(self, diag: Diagnostic) -> bool:
        return self.code in ("*", diag.code) and fnmatch.fnmatch(
            diag.path, self.pattern
        )


DEFAULT_WAIVER_FILE = ".repro-lint.waivers"


def load_waivers(path: Path) -> List[Waiver]:
    """Parse a waiver file: ``<path glob> <CODE> <reason…>`` per line."""
    waivers: List[Waiver] = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ValueError(
                f"{path}:{number}: waiver lines need "
                f"'<path glob> <CODE> <reason…>', got {line!r}"
            )
        waivers.append(Waiver(parts[0], parts[1], parts[2]))
    return waivers


# -- driver ----------------------------------------------------------------------


def _excluded(path: Path) -> bool:
    posix = path.as_posix()
    return any(
        f"/{suffix}/" in f"/{posix}/" for suffix in DEFAULT_EXCLUDES
    ) or "__pycache__" in path.parts


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories; walks prune DEFAULT_EXCLUDES, explicit
    file arguments bypass them."""
    for path in paths:
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not _excluded(found):
                    yield found
        else:
            yield path


def check_file(path: Path, source: Optional[str] = None) -> List[Diagnostic]:
    """All non-suppressed diagnostics for one file."""
    if source is None:
        source = path.read_text(encoding="utf-8")
    try:
        ctx = build_context(path, source)
    except SyntaxError as error:
        return [
            Diagnostic(
                _display_path(path),
                error.lineno or 1,
                (error.offset or 0) + 1,
                "RL000",
                f"syntax error: {error.msg}",
            )
        ]
    findings: List[Diagnostic] = []
    for rule in RULES:
        for diag in rule.check(ctx):
            if not ctx.is_suppressed(diag):
                findings.append(diag)
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return findings


def lint_paths(
    paths: Sequence[Path], waivers: Sequence[Waiver] = ()
) -> Tuple[List[Diagnostic], List[Diagnostic]]:
    """Lint everything under ``paths``; returns (active, waived)."""
    active: List[Diagnostic] = []
    waived: List[Diagnostic] = []
    for path in iter_python_files(paths):
        for diag in check_file(path):
            matching = next((w for w in waivers if w.covers(diag)), None)
            if matching is not None:
                waived.append(
                    Diagnostic(
                        diag.path, diag.line, diag.col, diag.code,
                        f"{diag.message} [waived: {matching.reason}]",
                        waived=True,
                    )
                )
            else:
                active.append(diag)
    return active, waived


def run(
    paths: Sequence[str],
    output_format: str = "text",
    waiver_file: Optional[str] = None,
    use_waivers: bool = True,
    list_rules: bool = False,
    show_waived: bool = False,
    stdout=None,
    stderr=None,
) -> int:
    """The ``repro lint`` entry point shared by the CLI and ``__main__``."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}", file=out)
        return 0
    if not paths:
        print("repro lint: no paths given", file=err)
        return 2
    targets = [Path(p) for p in paths]
    missing = [p for p in targets if not p.exists()]
    if missing:
        print(
            f"repro lint: no such path: {', '.join(map(str, missing))}",
            file=err,
        )
        return 2
    waivers: List[Waiver] = []
    if use_waivers:
        candidate = Path(waiver_file) if waiver_file else Path(DEFAULT_WAIVER_FILE)
        if candidate.exists():
            try:
                waivers = load_waivers(candidate)
            except ValueError as error:
                print(f"repro lint: {error}", file=err)
                return 2
        elif waiver_file:
            print(f"repro lint: waiver file not found: {waiver_file}", file=err)
            return 2
    active, waived = lint_paths(targets, waivers)
    emit = Diagnostic.as_github if output_format == "github" else Diagnostic.as_text
    for diag in active:
        print(emit(diag), file=out)
    if show_waived:
        for diag in waived:
            print(f"[waived] {diag.as_text()}", file=out)
    print(
        f"repro lint: {len(active)} finding(s), {len(waived)} waived",
        file=err,
    )
    return 1 if active else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based checker for the repo's architectural invariants",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="diagnostic format (github = Actions inline annotations)",
    )
    parser.add_argument(
        "--waivers", default=None, metavar="FILE",
        help=f"waiver file (default: {DEFAULT_WAIVER_FILE} if present)",
    )
    parser.add_argument(
        "--no-waivers", action="store_true",
        help="ignore any waiver file",
    )
    parser.add_argument(
        "--show-waived", action="store_true",
        help="also print waived findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run(
        args.paths,
        output_format=args.format,
        waiver_file=args.waivers,
        use_waivers=not args.no_waivers,
        list_rules=args.list_rules,
        show_waived=args.show_waived,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
