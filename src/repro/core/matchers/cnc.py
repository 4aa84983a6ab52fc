"""Connected Components (CNC) — Algorithm 2 of the paper.

Discards edges with weight < t, computes connected components of the
pruned bipartite graph, and keeps only the components that consist of
exactly two nodes (necessarily one per collection, since all edges
cross sides). A component has exactly two nodes iff it is a single
distinct ``(v1, v2)`` pair whose endpoints each have one distinct
neighbour, so the kernel is a degree test: O(m log m) numpy work with
no per-edge Python loop, matching the paper's observation that CNC is
the fastest algorithm (it quotes O(m) with DFS).
"""
from __future__ import annotations

import numpy as np

from .base import pairs_array, prune


def _degree_one(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries whose id occurs exactly once in ``ids``."""
    _, inv, counts = np.unique(ids, return_inverse=True, return_counts=True)
    return counts[inv] == 1


def cnc(v1, v2, w, t: float) -> np.ndarray:
    """Match left/right nodes whose pruned component is a single edge."""
    a, b, _ = prune(v1, v2, w, lambda s: s >= t)  # Alg. 2 discards w < t
    pairs = pairs_array(a, b)
    distinct = np.ones(len(pairs), dtype=bool)
    distinct[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    pairs = pairs[distinct]
    return pairs[_degree_one(pairs[:, 0]) & _degree_one(pairs[:, 1])]
