"""Row Column Assignment Clustering (RCA) — Algorithm 3 of the paper.

Two greedy passes over the similarity graph (Kurtzberg's Row-Column
Scan for the assignment problem): pass 1 assigns, for each left node
in ascending id order, the most similar still-unassigned right node;
pass 2 does the symmetric scan from the right side. The pass with the
larger total assigned weight wins (the row pass on equal totals), and
pairs below the similarity threshold t are then discarded (Alg. 3
lines 29-36).

Per JedAI practice the scans consider the edges present in the graph
(weight > 0) rather than a conceptual complete bipartite graph; a node
with no unassigned neighbour simply stays single. O(|V1| |V2|) worst
case (here O(m log m) via grouped sorting).
"""
from __future__ import annotations

import numpy as np

from .base import greedy_scan, pairs_array, prune


def rca(v1, v2, w, t: float) -> np.ndarray:
    """Best of the row scan and the column scan, thresholded at t."""
    a, b, s = prune(v1, v2, w, lambda s: s > 0)  # the passes ignore t
    rows, d1 = greedy_scan(a, b, s)
    cols, d2 = greedy_scan(b, a, s)
    idx = rows if d1 >= d2 else cols
    idx = idx[s[idx] >= t]
    return pairs_array(a[idx], b[idx])
