"""Unique Mapping Clustering (UMC) — Algorithm 8 of the paper.

Prunes edges with weight <= t, sorts the rest in decreasing weight and
greedily forms a partition for the top-weighted pair whose endpoints
are both still unmatched (the unique-mapping constraint of CCER).
O(m log m) from the sort. Equivalent to FAMER's CLIP clustering in the
two-source case.
"""
from __future__ import annotations

import numpy as np

from .base import desc_order, pairs_array, prune


def umc(v1, v2, w, t: float) -> np.ndarray:
    """Greedy max-weight 1-1 matching over edges with weight > t."""
    a, b, s = prune(v1, v2, w, lambda s: s > t)  # Alg. 8 line 6: strictly greater
    order = desc_order(a, b, s)
    partner: dict[int, int] = {}  # left -> right
    matched_r: set[int] = set()
    for x, y in zip(a[order].tolist(), b[order].tolist()):
        if x not in partner and y not in matched_r:
            partner[x] = y
            matched_r.add(y)
    return pairs_array(list(partner), list(partner.values()))
