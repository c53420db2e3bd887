"""AST-based concurrency lint for the serve/pool tier.

The serve tier's correctness rests on three disciplines that nothing in
the type system enforces, so this lint checks them statically over the
Python source (``repro lint --concurrency PATH``, and CI over
``src/repro/serve`` + ``src/repro/gmdj/pool.py``):

* **RW-lock discipline** — tenant state mutates only under the writer
  lock.  *C301* fires on a call to a known mutating operation
  (``apply_ddl``, catalog/table DDL, cache invalidation) lexically
  inside a reader-lock region (between ``acquire_read`` and
  ``release_read``, or inside ``with lock.read():``).  *C302* fires on
  a call into the DDL path (``apply_ddl``) from a function that never
  acquires the writer lock first — except from a function itself named
  ``apply_*``, the convention for lock-free helpers documented as
  "must be called with the writer lock held".

* **ContextVar isolation** — work shipped to a pool runs with its own
  Tracer/IOStats/metrics context, never racing the coordinator's.
  *C303* fires on an executor submission (``.submit``/``.map``/
  ``.run_in_executor``) whose worker entry point demonstrably installs
  no isolation: a resolvable local function that calls none of
  ``collect``/``tracing``/``metrics_scope``, or a bare lambda — unless
  the call site wraps the work in ``contextvars.copy_context()`` or
  hands over a ``Context.run`` bound method.  Unresolvable callables
  (imported names) are left alone: like
  :meth:`~repro.lint.infer.PlanTyper.column_possibly_null`, the rule is
  conservative in the quiet direction and only fires on provable
  violations.

* **No shared-mutable capture** — *C304* fires when the callable
  submitted to a pool is a closure (lambda or nested ``def``) that
  references a name bound to a mutable literal (list/dict/set display
  or comprehension) in the enclosing function: the workers would share
  one unsynchronized object.

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

#: Calls that install per-worker context isolation.
ISOLATING_CALLS = frozenset({
    "collect", "tracing", "metrics_scope", "copy_context",
})

#: Executor submission methods -> position of the callable argument.
SUBMIT_METHODS = {"submit": 0, "map": 0, "run_in_executor": 1}

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


def _mutable_names(function: _FunctionNode) -> frozenset[str]:
    """Names the function binds to mutable literals/comprehensions."""
    mutable: set[str] = set()
    literal_types = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
    for node in _local_nodes(function):
        if isinstance(node, ast.Assign) and isinstance(node.value,
                                                       literal_types):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
    return frozenset(mutable)


def _referenced_names(node: ast.AST) -> set[str]:
    return {child.id for child in ast.walk(node)
            if isinstance(child, ast.Name)}


def _calls_isolator(function_or_lambda: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and _call_name(node.func) in ISOLATING_CALLS
        for node in ast.walk(function_or_lambda)
    )


def _unwrap_partial(callable_arg: ast.expr) -> ast.expr:
    """``functools.partial(f, ...)`` submits ``f``."""
    if (isinstance(callable_arg, ast.Call)
            and _call_name(callable_arg.func) == "partial"
            and callable_arg.args):
        return callable_arg.args[0]
    return callable_arg


class _ModuleChecker:
    """One source file's concurrency-lint pass."""

    def __init__(self, tree: ast.Module, filename: str,
                 report: LintReport) -> None:
        self.tree = tree
        self.filename = filename
        self.report = report
        #: Module-level function definitions, for resolving the worker
        #: entry point a submission names.
        self.functions: dict[str, _FunctionNode] = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def run(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)

    def _at(self, line: int) -> str:
        return f"{self.filename}:{line}"

    def _check_function(self, function: _FunctionNode) -> None:
        calls = _local_calls(function)
        nested = {
            node.name: node for node in ast.walk(function)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not function
        }
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

        self._check_submissions(function, calls, nested)

    def _check_submissions(
        self, function: _FunctionNode, calls: list[ast.Call],
        nested: dict[str, _FunctionNode],
    ) -> None:
        caller_isolates = any(
            _call_name(call.func) == "copy_context" for call in calls
        )
        shared = _mutable_names(function)
        for call in calls:
            if not isinstance(call.func, ast.Attribute):
                continue  # builtin map()/submit() shadowing, not a pool
            position = SUBMIT_METHODS.get(call.func.attr)
            if position is None or len(call.args) <= position:
                continue
            worker = _unwrap_partial(call.args[position])
            self._check_worker_isolation(
                call, worker, nested, caller_isolates,
            )
            self._check_shared_capture(call, worker, nested, shared)

    def _check_worker_isolation(
        self, call: ast.Call, worker: ast.expr,
        nested: dict[str, _FunctionNode], caller_isolates: bool,
    ) -> None:
        if caller_isolates:
            return
        if isinstance(worker, ast.Attribute) and worker.attr == "run":
            return  # a Context.run bound method carries its own context
        target: ast.AST | None = None
        if isinstance(worker, ast.Lambda):
            target = worker
        elif isinstance(worker, ast.Name):
            target = nested.get(worker.id) or self.functions.get(worker.id)
        if target is None:
            return  # unresolvable: stay quiet rather than guess
        if _calls_isolator(target):
            return
        label = (worker.id if isinstance(worker, ast.Name) else "lambda")
        self.report.add(
            "C303",
            f"pool submission of {label} installs no ContextVar "
            f"isolation (collect/tracing/metrics_scope)",
            self._at(call.lineno),
            hint="isolate worker state with collect()/tracing()/"
                 "metrics_scope(), or submit through "
                 "contextvars.copy_context().run",
        )

    def _check_shared_capture(
        self, call: ast.Call, worker: ast.expr,
        nested: dict[str, _FunctionNode], shared: frozenset[str],
    ) -> None:
        if not shared:
            return
        body: ast.AST | None = None
        if isinstance(worker, ast.Lambda):
            body = worker.body
        elif isinstance(worker, ast.Name) and worker.id in nested:
            body = nested[worker.id]
        if body is None:
            return
        captured = sorted(_referenced_names(body) & shared)
        if captured:
            self.report.add(
                "C304",
                f"pool submission captures shared mutable "
                f"{', '.join(captured)} from the enclosing scope",
                self._at(call.lineno),
                hint="pass data into the worker as an argument and "
                     "merge results on the coordinator",
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
    "ISOLATING_CALLS",
    "MUTATING_CALLS",
    "RECEIVER_CHECKED_CALLS",
    "SUBMIT_METHODS",
    "lint_concurrency_paths",
    "lint_concurrency_source",
]
