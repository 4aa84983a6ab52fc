"""Best Match Clustering (BMC) — Algorithm 5 of the paper.

For each entity of the basis collection (a configuration parameter:
``basis='left'`` or ``'right'``), in ascending node-id order, create a
partition with the most similar not-yet-clustered entity of the other
collection whose edge weight exceeds t. O(m) after grouping. The
experiment harness tries both bases and keeps the best (paper, Sec. 3).
"""
from __future__ import annotations

import numpy as np

from .base import greedy_scan, pairs_array, prune


def bmc(v1, v2, w, t: float, *, basis: str = "left") -> np.ndarray:
    """Greedy best-available match per basis-collection node."""
    if basis not in ("left", "right"):
        raise ValueError(f"basis must be 'left' or 'right', got {basis!r}")
    a, b, s = prune(v1, v2, w, lambda s: s > t)  # Alg. 5 line 5: sim > t
    idx, _ = greedy_scan(a, b, s) if basis == "left" else greedy_scan(b, a, s)
    return pairs_array(a[idx], b[idx])
