"""Exact Clustering (EXC) — Algorithm 6 of the paper.

Two entities are matched only if they are *mutually* best: the
top-weighted adjacent edge of the left node is also the top-weighted
adjacent edge of the right node (edges <= t are pruned first). A
stricter, symmetric version of BMC; equivalent to the MutualFirstChoice
algorithm of Gemmell et al. The paper quotes O(n m); with grouped
argmax this implementation is O(m log m).
"""
from __future__ import annotations

import numpy as np

from .base import desc_order, pairs_array, prune


def _best_edge_per_group(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Edge index of the first (= best, in ``order``) edge per key."""
    sorted_keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order[first]


def exc(v1, v2, w, t: float) -> np.ndarray:
    """Match pairs that are each other's single best candidate."""
    a, b, s = prune(v1, v2, w, lambda s: s > t)  # Alg. 6 line 6: strictly greater
    best_l = _best_edge_per_group(a, desc_order(a, b, s, by_a=True))
    best_r = _best_edge_per_group(b, desc_order(b, a, s, by_a=True))
    mutual = np.intersect1d(best_l, best_r)
    return pairs_array(a[mutual], b[mutual])
