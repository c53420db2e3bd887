"""Package layering, checked by walking every import in the source.

Storage is the bottom layer: it decides its own encodings (validity
masks included) and may not reach up into the static analyses, the
engine or the GMDJ kernels — function-local imports count.  The GMDJ
kernels consult lint for exactly two static classifications: the
per-spec aggregate class that gates partition-and-merge, and the
per-conjunct class the array kernel's range form reads; nothing
data-dependent.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def imported_names(package: str) -> set[tuple[str, str]]:
    """Every ``(module, name)`` a package's files import from ``repro``;
    a plain ``import repro.x`` yields ``("repro.x", "")``."""
    found: set[tuple[str, str]] = set()
    for path in sorted((SRC / package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path}: relative import"
                if (node.module or "").startswith("repro"):
                    found.update((node.module, alias.name)
                                 for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, "") for alias in node.names
                             if alias.name.startswith("repro"))
    return found


def from_package(names: set[tuple[str, str]], package: str) -> set:
    prefix = f"repro.{package}"
    return {(module, name) for module, name in names
            if module == prefix or module.startswith(prefix + ".")
            or (module == "repro" and name == package)}


def test_storage_imports_nothing_above_it():
    names = imported_names("storage")
    assert names, "walked no imports: wrong source root?"
    for upper in ("lint", "engine", "gmdj"):
        assert from_package(names, upper) == set(), upper


def test_gmdj_takes_only_static_classifications_from_lint():
    lint_imports = from_package(imported_names("gmdj"), "lint")
    assert {name for _, name in lint_imports} \
        == {"decomposable_aggregates", "classify_conjunct"}
