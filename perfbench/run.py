"""The ``BENCHMARK.json`` command: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, run from the root of a checkout."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.runner import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
