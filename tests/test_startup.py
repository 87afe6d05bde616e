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
