"""Script entry of the campaign workload benchmark (see README.md).

    python3 benchmarks/workloads/run.py --workload certainty --seed 7 --seconds 20 --trace 0

Puts the checkout's ``src`` and root on ``sys.path`` (the benchmark runs
the code of the checkout it sits in) and hands over to
:func:`benchmarks.workloads.cli.main`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# replaces this file's own directory, whose module names are not top-level
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.workloads.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
