"""Shared machinery for the reference bipartite matchers.

All eight matchers share one calling convention::

    pairs = matcher(v1, v2, w, t)

where ``v1``/``v2`` are int64 arrays of left/right node ids, ``w`` is a
float64 array of edge weights in [0, 1], ``t`` is the similarity
threshold, and the result is an ``(k, 2)`` int64 array of matched
``(left, right)`` pairs sorted by left then right id. Matchers are pure
functions of their inputs: ties are broken deterministically by (higher
weight, lower left id, lower right id), so repeated runs produce
identical output.

Every matcher starts from the same three helpers: ``prune`` (the edge
contract plus the algorithm's own threshold rule), ``desc_order`` (the
one ordering rule) and, for the row-scan algorithms (RCA, BMC),
``greedy_scan``.

These kernels are exact implementations of the paper's Algorithms 1-8
and run either on the driver (threshold sweeps) or inside Spark tasks
(``core.spark_match`` applies them per connected component, or to the
whole graph, via ``applyInPandas``).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

#: Output of every matcher: (k, 2) int64 array of (left, right) pairs.
EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def prune(
    v1, v2, w, keep: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges whose weight passes ``keep``, as int64/int64/float64 arrays.

    ``keep`` maps the weight array to a boolean mask; each matcher passes
    its own threshold rule (e.g. ``lambda s: s > t``). The result may be
    empty.
    """
    v1 = np.asarray(v1, dtype=np.int64)
    v2 = np.asarray(v2, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    mask = keep(w)
    return v1[mask], v2[mask], w[mask]


def desc_order(
    a: np.ndarray, b: np.ndarray, s: np.ndarray, *, by_a: bool = False
) -> np.ndarray:
    """Edge indices in weight-desc order, ties by ``a`` asc then ``b`` asc.

    With ``by_a`` the edges are grouped by ``a`` (ascending) first, and
    each group is in weight-desc order with ties by ``b``: the scan order
    of "each ``a`` node, best edge first". Full ties keep input order.
    With this single rule, greedy algorithms (UMC, BMC, EXC, KRC, RCA)
    are order-independent reproductions of the paper's priority-queue
    pop order.
    """
    return np.lexsort((b, -s, a)) if by_a else np.lexsort((b, a, -s))


def greedy_scan(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    """Row scan: each ``a`` node (asc id) takes its best not-yet-taken ``b``.

    Returns the picked edge indices (in scan order) and their weight
    total, summed in scan order. This is RCA's row and column pass
    (Alg. 3) and BMC's per-basis loop (Alg. 5).
    """
    order = desc_order(a, b, s, by_a=True)
    a_o = a[order]
    starts = np.flatnonzero(np.r_[True, a_o[1:] != a_o[:-1]]).tolist()
    b_o, s_o = b[order].tolist(), s[order].tolist()
    taken: set[int] = set()
    picked: list[int] = []
    total = 0.0
    for lo, hi in zip(starts, starts[1:] + [len(b_o)]):
        for k in range(lo, hi):
            if b_o[k] not in taken:
                taken.add(b_o[k])
                picked.append(k)
                total += s_o[k]
                break
    return order[np.asarray(picked, dtype=np.int64)], total


def pairs_array(left, right) -> np.ndarray:
    """Matched ``(left, right)`` id sequences as the sorted output array."""
    out = np.column_stack(
        (np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64))
    )
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def compact_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary int64 ids to 0..k-1. Returns (compacted, uniques)."""
    uniques, inv = np.unique(ids, return_inverse=True)
    return inv.astype(np.int64), uniques
