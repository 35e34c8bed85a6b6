"""``python -m benchmarks.perflab`` (with ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
