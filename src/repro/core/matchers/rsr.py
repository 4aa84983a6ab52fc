"""Ricochet Sequential Rippling Clustering (RSR) — Algorithm 1 of the paper.

CCER adaptation of Wijaya & Bressan's sequential rippling: nodes of
both collections are visited in descending average adjacent-edge
weight; each visited seed captures its best adjacent vertex (in
decreasing similarity) that is unassigned or closer to the seed than
to its current centre. Partitions reduced to singletons by a capture
are re-assigned to their nearest single-node partition. O(n m).

CCER validity: edges always cross sides, so a centre and its captured
vertex come from different collections; the final output keeps only
partitions with exactly one node per side (the paper counts only
two-entity partitions as predicted matches).
"""
from __future__ import annotations

import numpy as np

from .base import pairs_array, prune


def rsr(v1, v2, w, t: float) -> np.ndarray:
    """Sequential rippling over edges with weight > t."""
    a, b, s = prune(v1, v2, w, lambda s: s > t)  # Alg. 1 line 11: sim > t
    # Disjoint global node space (left even, right odd) so both sides
    # share the data structures below.
    ga, gb = a * 2, b * 2 + 1

    adj: dict[int, list[tuple[float, int]]] = {}
    for x, y, sim in zip(ga, gb, s):
        adj.setdefault(int(x), []).append((float(sim), int(y)))
        adj.setdefault(int(y), []).append((float(sim), int(x)))
    for lst in adj.values():
        # decreasing similarity; ties by lower neighbour id
        lst.sort(key=lambda e: (-e[0], e[1]))

    avg_w = {v: sum(sim for sim, _ in lst) / len(lst) for v, lst in adj.items()}
    # Q: nodes in decreasing average weight (ties: lower id first).
    queue = sorted(adj, key=lambda v: (-avg_w[v], v))

    sim_with_center = {v: 0.0 for v in adj}
    center_of = {v: v for v in adj}
    partition: dict[int, set[int]] = {v: set() for v in adj}
    centers: set[int] = set()

    for vi in queue:
        to_reassign: set[int] = set()
        for sim, vj in adj[vi]:
            if vj in centers:
                continue
            if sim > sim_with_center[vj]:
                prev = center_of[vj]
                partition[prev].discard(vj)
                partition[vi].add(vj)
                if prev != vj:
                    to_reassign.add(prev)  # prev may now be a singleton
                sim_with_center[vj] = sim
                center_of[vj] = vi
                break  # first qualifying adjacent vertex only
        if partition[vi]:
            if center_of[vi] != vi:  # vi was a member of another partition
                partition[center_of[vi]].discard(vi)
                to_reassign.add(center_of[vi])
            centers.add(vi)
            partition[vi].add(vi)
            center_of[vi] = vi
            sim_with_center[vi] = 1.0
        for vk in to_reassign:
            if partition[vk] != {vk}:
                continue  # only centers reduced to a singleton move
            best_sim, best = 0.0, None
            for sim, vl in adj[vk]:
                if sim > best_sim and len(partition[vl]) < 2:
                    best_sim, best = sim, vl
                    break  # adjacency is sorted desc: first hit is best
            if best is not None:
                centers.discard(vk)
                partition[vk] = set()  # Alg. 1 line 38
                partition[best].add(vk)
                center_of[vk] = best

    out_l, out_r = [], []
    for c, members in partition.items():
        if len(members) == 2:
            left = [v for v in members if v % 2 == 0]
            right = [v for v in members if v % 2 == 1]
            if len(left) == 1 and len(right) == 1:
                out_l.append(left[0] // 2)
                out_r.append(right[0] // 2)
    return pairs_array(out_l, out_r)
