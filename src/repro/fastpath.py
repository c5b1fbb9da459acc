"""No-op cache hooks that ``perfbench/run.py`` calls.

The simulator keeps no memo caches; both functions do nothing.
"""

from typing import Dict, Tuple


def clear_caches() -> None:
    """Nothing to empty."""


def snapshot_counters() -> Dict[str, Tuple[int, int]]:
    """``{cache: (hits, misses)}``; always empty."""
    return {}
