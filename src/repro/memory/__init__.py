"""Cache models: a set-associative LRU cache and a two-level hierarchy.

The hierarchy mirrors the paper's evaluation machine: split 4-way 64 KB
first-level instruction and data caches backed by a unified 1 MB L2.
"""

from .cache import Cache, CacheStats
from .hierarchy import AccessPlan, AccessResult, CacheHierarchy

__all__ = ["Cache", "CacheStats", "AccessPlan", "AccessResult", "CacheHierarchy"]
