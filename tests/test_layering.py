"""The compiler and the device simulator know no tracer.

Observability sits above them: the validation runner records each
phase's facts (``PhaseResult.cache_hit``, ``memo_hit``, ``executed``) and
emits the trace's events from what ``repro.compiler`` returns.  So no
module under ``src/repro/compiler/`` or ``src/repro/accsim/`` names
``tracer`` (a variable, parameter, attribute or keyword) or imports
``repro.obs``.  Nor does one import ``repro.staticcheck``: the linter sits
above the compiler too.  Standard library only: ``ast`` over the source
files.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

ROOT = Path(__file__).resolve().parent.parent
#: the packages that must stay below the observability layer
LOWER = ("src/repro/compiler", "src/repro/accsim")


def _modules() -> Iterator[Path]:
    for top in LOWER:
        yield from sorted((ROOT / top).rglob("*.py"))


def _names(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node that spells ``tracer`` as an identifier."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "tracer")
                or (isinstance(node, ast.arg) and node.arg == "tracer")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "tracer")
                or (isinstance(node, ast.keyword) and node.arg == "tracer")):
            yield node


def _imports_of(package: str):
    """A finder of every import of ``package`` or one of its modules."""
    top, _, leaf = package.rpartition(".")

    def finder(tree: ast.Module) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(alias.name == package
                       or alias.name.startswith(package + ".")
                       for alias in node.names):
                    yield node
            elif isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if module == package or module.startswith(package + "."):
                    yield node
                elif module == top and any(alias.name == leaf
                                           for alias in node.names):
                    yield node
    return finder


_obs_imports = _imports_of("repro.obs")
#: the compiler reads the clause tables from ``repro.ir.acc``, so a
#: compile never loads the linter
_staticcheck_imports = _imports_of("repro.staticcheck")


def _offences(finder) -> List[str]:
    out = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.extend(f"{path.relative_to(ROOT)}:{node.lineno}"
                   for node in finder(tree))
    return out


def test_lower_layers_are_checked():
    assert any(path.name == "cache.py" for path in _modules())
    assert any(path.parent.name == "accsim" for path in _modules())


def test_no_lower_module_names_a_tracer():
    assert _offences(_names) == []


def test_no_lower_module_imports_obs():
    assert _offences(_obs_imports) == []


def test_no_lower_module_imports_staticcheck():
    assert _offences(_staticcheck_imports) == []


def test_finders_catch_what_they_look_for():
    tree = ast.parse(
        "import repro.obs.live\n"
        "from repro.obs import Tracer\n"
        "from repro import obs\n"
        "def f(x, tracer=None):\n"
        "    self.tracer.event(tracer=tracer)\n")
    assert len(list(_obs_imports(tree))) == 3
    assert len(list(_staticcheck_imports(ast.parse(
        "import repro.staticcheck\n"
        "from repro.staticcheck.legality import ALLOWED_CLAUSES\n"
        "from repro import staticcheck\n"
        "from repro.ir.acc import ALLOWED_CLAUSES\n")))) == 3
    assert len(list(_names(tree))) == 4
