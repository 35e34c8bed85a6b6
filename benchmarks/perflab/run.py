"""``python3 benchmarks/perflab/run.py``: perflab from a bare checkout.

The same command line as ``python -m benchmarks.perflab``, but it puts
the repository root and ``src/`` on ``sys.path`` itself, so it needs no
``PYTHONPATH`` and no installed package. This is the command in
``BENCHMARK.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perflab: no simulator under {ROOT / 'src'}; run it "
                 "from a checkout of the repository")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perflab.cli import main
    sys.exit(main())
