"""Start-up cost guard: the CLI and the corpus need nothing but the
standard library.

Every run of the harness pays for what its imports load, so a third-party
import on the start-up path raises the fixed cost of every campaign (one
array library once made up about half of it).  This test fails on such an
import instead of letting it show up only as slower runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: what importing the CLI and building the corpus loads, over what the
#: interpreter loaded at start-up (site hooks included); -I keeps the
#: environment's and the user's paths out, site-packages stays importable
_PROBE = f"""
import json, sys
before = set(sys.modules)
sys.path.insert(0, {_SRC!r})
import repro.cli
from repro.suite.registry import openacc10_suite
openacc10_suite()
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(json.dumps(sorted(loaded)))
"""

#: multiprocessing's alias of the main script, not a module of a package
_MAIN_ALIAS = "__mp_main__"


def test_cli_and_corpus_load_only_the_stdlib():
    done = subprocess.run([sys.executable, "-I", "-c", _PROBE],
                          capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "repro" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names
               and name not in (_MAIN_ALIAS, "repro")]
    assert foreign == []


# ---------------------------------------------------------------------------
# start-up loads only what the run uses
# ---------------------------------------------------------------------------

#: modules that only a process pool, a lint run, a journal, live
#: telemetry, a report format or a did-you-mean message needs; a serial
#: campaign's start-up loads none of them
_ON_DEMAND = (
    "concurrent.futures.process", "multiprocessing", "difflib", "html",
    "csv", "repro.staticcheck", "repro.obs.live", "repro.obs.dashboard",
    "repro.journal",
)
#: what only a process pool loads
_POOL_STACK = ("concurrent.futures.process", "multiprocessing")


def _loaded(code: str) -> set:
    """The modules loaded after running ``code`` in a fresh ``-I``
    interpreter that imports from this checkout's ``src``."""
    probe = (f"import json, sys\nsys.path.insert(0, {_SRC!r})\n{code}\n"
             "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_repro_loads_nothing_on_demand():
    loaded = _loaded("import repro")
    assert "repro.harness.engine" in loaded
    assert [name for name in _ON_DEMAND if name in loaded] == []


def test_cli_and_corpus_load_nothing_on_demand():
    loaded = _loaded("import repro.cli\n"
                     "from repro import openacc10_suite\n"
                     "openacc10_suite()")
    assert "repro.cli" in loaded
    assert [name for name in _ON_DEMAND if name in loaded] == []


_VALIDATE = ("import contextlib, io\nimport repro.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    repro.cli.main({argv!r})")


def test_a_serial_validate_loads_no_pool_module():
    argv = ["validate", "--features", "parallel", "--iterations", "1"]
    loaded = _loaded(_VALIDATE.format(argv=argv))
    assert "repro.harness.engine" in loaded
    assert [name for name in _POOL_STACK if name in loaded] == []


def test_a_pooled_validate_loads_the_pool_stack():
    argv = ["validate", "--features", "parallel", "--iterations", "1",
            "--policy", "process", "--workers", "2"]
    loaded = _loaded(_VALIDATE.format(argv=argv))
    assert [name for name in _POOL_STACK if name not in loaded] == []


def test_the_pool_executor_patches_before_the_pool_stack_is_loaded():
    loaded = _loaded("""
import concurrent.futures as futures_pkg
import pytest
from repro import HarnessConfig, ValidationRunner, openacc10_suite
from repro.harness import engine

assert "concurrent.futures.process" not in sys.modules
assert "ProcessPoolExecutor" not in vars(engine)
pools = []

def counting(*args, **kwargs):
    pools.append(kwargs["max_workers"])
    return futures_pkg.ProcessPoolExecutor(*args, **kwargs)

patch = pytest.MonkeyPatch()
patch.setattr(engine, "ProcessPoolExecutor", counting)
config = HarnessConfig(iterations=1, languages=("c",), features=["parallel"],
                       run_cross=False, policy="process", workers=2)
report = ValidationRunner(config=config).run_suite(openacc10_suite())
assert report.results and all(r.passed for r in report.results)
assert pools == [2]
patch.undo()
assert engine.ProcessPoolExecutor is futures_pkg.ProcessPoolExecutor
""")
    assert "concurrent.futures.process" in loaded
