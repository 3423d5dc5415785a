"""Make the benchmark's modules and the popres sources importable.

Run the self-test from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
