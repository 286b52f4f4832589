"""Compile-once layer: pattern interning, automaton compilation, memos.

See :mod:`repro.compile.compiler` for the architecture overview and
``docs/PERFORMANCE.md`` for metrics and benchmarks.
"""

from repro.compile.cache import MISS, LRUCache
from repro.compile.compiler import (
    DEFAULT_CACHE_SIZE,
    PatternCompiler,
    global_compiler,
    reset_global_compiler,
)
from repro.compile.intern import InternedPattern, PatternInterner

__all__ = [
    "MISS",
    "LRUCache",
    "DEFAULT_CACHE_SIZE",
    "PatternCompiler",
    "global_compiler",
    "reset_global_compiler",
    "InternedPattern",
    "PatternInterner",
]
