"""``PYTHONPATH=src python -m benchmarks.workloads``: see cli.py."""

import sys

from benchmarks.workloads.cli import main

sys.exit(main())
