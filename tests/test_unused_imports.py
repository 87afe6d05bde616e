"""No module-level import that its module never uses.

A module-level import counts as used when the module names it, lists it
in ``__all__`` or mentions it in a string (a quoted annotation, a
docstring cross-reference), or when another module imports that name
from this module (a re-export).  Imports inside functions are not
checked.  Standard library only: ``ast`` over the source files of
``src/`` and ``tests/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: directories whose modules are checked
CHECKED = ("src", "tests")
#: directories whose imports can re-export a checked module's name
IMPORTERS = ("src", "tests", "benchmarks", "examples")


def _module_name(root: Path, path: Path) -> str:
    """The dotted name a file imports as (``src/`` is a path root)."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _sources(root: Path, tops) -> Iterator[Tuple[Path, ast.Module]]:
    for top in tops:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _imported_from(node: ast.ImportFrom, importer: str,
                   is_package: bool) -> str:
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    # a package's own name is its first level; a module's is its parent
    base = base[:len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _reexports(root: Path) -> Set[Tuple[str, str]]:
    """(module, name) for every ``from module import name`` anywhere."""
    out: Set[Tuple[str, str]] = set()
    for path, tree in _sources(root, IMPORTERS):
        importer = _module_name(root, path)
        package = path.name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _imported_from(node, importer, package)
                out.update((module, alias.name) for alias in node.names)
    return out


def _module_imports(body) -> Iterator[Tuple[str, str, int]]:
    """(bound name, imported name, line) of each module-level import,
    ``if``/``try`` blocks included."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.name, node.lineno
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_imports(
                node.body + node.orelse + node.finalbody
                + [s for h in node.handlers for s in h.body])


def _dunder_all(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(root: Path = ROOT) -> List[str]:
    reexports = _reexports(root)
    found: List[str] = []
    for path, tree in _sources(root, CHECKED):
        module = _module_name(root, path)
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        strings = [n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        exported = _dunder_all(tree)
        for bound, imported, line in _module_imports(tree.body):
            if bound in names or bound in exported:
                continue
            if (module, bound) in reexports:
                continue
            word = re.compile(rf"\b{re.escape(bound)}\b")
            if any(word.search(s) for s in strings):
                continue
            found.append(f"{path.relative_to(root)}:{line}: {imported}")
    return found


def test_no_unused_module_imports():
    assert unused_imports() == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("import os\nfrom typing import Dict, List\n"
                      "x: List[int] = []\n")
    assert unused_imports(tmp_path) == ["src/pkg/mod.py:1: os",
                                        "src/pkg/mod.py:2: Dict"]


def test_a_reexported_name_counts_as_used(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text("from typing import Dict\n")
    (package / "user.py").write_text("from .mod import Dict\nx: Dict = {}\n")
    assert unused_imports(tmp_path) == []


def test_the_scan_reads_the_tree():
    # a moved tree would otherwise pass vacuously
    counts: Dict[str, int] = {top: sum(1 for _ in _sources(ROOT, [top]))
                              for top in CHECKED}
    assert all(n > 10 for n in counts.values()), counts
