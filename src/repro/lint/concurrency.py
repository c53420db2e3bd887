"""AST-based concurrency lint for the serve tier.

The serve tier's correctness rests on a locking discipline that nothing
in the type system enforces, so this lint checks it statically over the
Python source (``repro lint --concurrency PATH``, and CI over
``src/repro/serve``):

* **RW-lock discipline** — tenant state mutates only under the writer
  lock.  *C301* fires on a call to a known mutating operation
  (``apply_ddl``, catalog/table DDL, cache invalidation) lexically
  inside a reader-lock region (between ``acquire_read`` and
  ``release_read``, or inside ``with lock.read():``).  *C302* fires on
  a call into the DDL path (``apply_ddl``) from a function that never
  acquires the writer lock first — except from a function itself named
  ``apply_*``, the convention for lock-free helpers documented as
  "must be called with the writer lock held".

A DDL path taking the read lock is a bug that no test and no
differential catches (DESIGN.md, mutant M17), which is why these rules
exist.

Findings are ordinary :class:`~repro.lint.diagnostics.PlanDiagnostic`
objects with ``path = "filename:line"`` so the report/render/JSON
machinery — and the CI error-severity gate — work unchanged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.diagnostics import LintReport

#: Calls that mutate tenant/database state and therefore require the
#: writer lock (C301 inside reader regions).
MUTATING_CALLS = frozenset({
    "apply_ddl",
    "create_table",
    "register",
    "drop_table",
    "create_index",
    "drop_indexes",
    "load_csv",
    "load_binary",
    "invalidate",
    "invalidate_results",
})

#: Mutations whose names ``list`` shares: C301 matches them only on a
#: receiver that is a database or a stored table (``db`` / ``database``,
#: ``<x>.db`` / ``<x>.database``, ``<x>.table(...)``), so growing a local
#: list inside a reader region stays quiet.
RECEIVER_CHECKED_CALLS = frozenset({"insert", "extend"})
_DATABASE_NAMES = frozenset({"db", "database"})

#: The tenant-level DDL entry point C302 tracks.  Helpers named
#: ``apply_*`` are the documented lock-free layer underneath it.
DDL_ENTRY = "apply_ddl"

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _call_name(func: ast.expr) -> str | None:
    """The bare/attribute name a call dispatches through, if simple."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mutates_state(call: ast.Call) -> bool:
    """Whether ``call`` is a known mutation of tenant/database state."""
    name = _call_name(call.func)
    if name in MUTATING_CALLS:
        return True
    if name not in RECEIVER_CHECKED_CALLS or not isinstance(
            call.func, ast.Attribute):
        return False
    receiver = call.func.value
    if isinstance(receiver, ast.Call):
        return _call_name(receiver.func) == "table"
    return _call_name(receiver) in _DATABASE_NAMES


def _local_nodes(function: _FunctionNode) -> Iterator[ast.AST]:
    """Every node of a function body, excluding nested function/class
    bodies (those execute under their own locks and contexts) but
    including lambda bodies' *references* via the Lambda node itself."""
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _local_calls(function: _FunctionNode) -> list[ast.Call]:
    return [node for node in _local_nodes(function)
            if isinstance(node, ast.Call)]


def _with_regions(function: _FunctionNode,
                  attr: str) -> list[tuple[int, int]]:
    """Line spans of ``with <expr>.<attr>():`` blocks (read/write)."""
    regions: list[tuple[int, int]] = []
    for node in _local_nodes(function):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if (isinstance(expr, ast.Call)
                    and _call_name(expr.func) == attr):
                regions.append((node.lineno, node.end_lineno or node.lineno))
                break
    return regions


def _paired_regions(calls: list[ast.Call], acquire: str,
                    release: str) -> list[tuple[int, int]]:
    """Line spans between explicit acquire/release call pairs.

    Unmatched acquires extend to the end of the function (the
    conservative reading: the lock is held from there on).
    """
    acquires = sorted(c.lineno for c in calls
                      if _call_name(c.func) == acquire)
    releases = sorted(c.lineno for c in calls
                      if _call_name(c.func) == release)
    regions: list[tuple[int, int]] = []
    for start in acquires:
        following = [line for line in releases if line >= start]
        regions.append((start, following[0] if following else 10 ** 9))
    return regions


def _in_regions(line: int, regions: list[tuple[int, int]]) -> bool:
    return any(start < line <= end or start == line
               for start, end in regions)


class _ModuleChecker:
    """One source file's concurrency-lint pass."""

    def __init__(self, tree: ast.Module, filename: str,
                 report: LintReport) -> None:
        self.tree = tree
        self.filename = filename
        self.report = report

    def run(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)

    def _at(self, line: int) -> str:
        return f"{self.filename}:{line}"

    def _check_function(self, function: _FunctionNode) -> None:
        calls = _local_calls(function)
        read_regions = (
            _paired_regions(calls, "acquire_read", "release_read")
            + _with_regions(function, "read")
        )
        write_regions = (
            _paired_regions(calls, "acquire_write", "release_write")
            + _with_regions(function, "write")
        )
        write_acquired_at = [start for start, _ in write_regions]

        for call in calls:
            name = _call_name(call.func)
            if _mutates_state(call) and _in_regions(call.lineno,
                                                     read_regions):
                self.report.add(
                    "C301",
                    f"{name}() mutates tenant state under a reader lock",
                    self._at(call.lineno),
                    hint="acquire the writer lock for DDL-path mutations",
                )
            if name == DDL_ENTRY:
                if function.name.startswith("apply"):
                    # The lock-free helper layer itself; its callers are
                    # the ones that must hold the writer lock.
                    continue
                held = any(start <= call.lineno
                           for start in write_acquired_at)
                if not held:
                    self.report.add(
                        "C302",
                        f"{DDL_ENTRY}() reached without acquiring the "
                        f"writer lock in {function.name}()",
                        self._at(call.lineno),
                        hint="wrap the DDL path in acquire_write/"
                             "release_write (or `with lock.write():`)",
                    )


def lint_concurrency_source(
    source: str, filename: str = "<source>",
    report: LintReport | None = None,
) -> LintReport:
    """Run the concurrency lint over one Python source text."""
    report = report if report is not None else LintReport()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        report.add(
            "C302",
            f"source does not parse: {error.msg}",
            f"{filename}:{error.lineno or 0}",
        )
        return report
    _ModuleChecker(tree, filename, report).run()
    return report


def lint_concurrency_paths(
    paths: Iterable[str | Path],
) -> LintReport:
    """Run the concurrency lint over files and directories of sources."""
    report = LintReport()
    for path in paths:
        path = Path(path)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            lint_concurrency_source(
                file.read_text(), filename=str(file), report=report,
            )
    return report


__all__ = [
    "DDL_ENTRY",
    "MUTATING_CALLS",
    "RECEIVER_CHECKED_CALLS",
    "lint_concurrency_paths",
    "lint_concurrency_source",
]
