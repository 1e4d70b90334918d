"""Make the benchmark modules and the library sources importable.

Run from the repository root: python -m pytest -q bench/tests
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
