"""Kiraly's Clustering (KRC) — Algorithm 7 of the paper.

Adaptation of Kiraly's linear-time 3/2-approximation to maximum stable
marriage ("New Algorithm", Kiraly 2013). Left nodes ("men") propose
along their preference lists (adjacent edges with weight > t, in
decreasing weight); right nodes ("women") accept a proposal when free
or when the proposer's edge weight is strictly higher than their
current fiance's. A rejected or deposed man returns to the free list;
when his list is exhausted he gets exactly one second chance with a
restored list (Alg. 7 lines 27-30). The paper itself omits Kiraly's
"uncertain man" refinement, and so do we. O(n + m log m).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .base import desc_order, pairs_array, prune


def krc(v1, v2, w, t: float) -> np.ndarray:
    """Proposal-based stable-marriage approximation over edges > t."""
    a, b, s = prune(v1, v2, w, lambda s: s > t)
    # Preference lists: per man, (woman, weight) in decreasing weight.
    order = desc_order(a, b, s, by_a=True)
    prefs: dict[int, list[tuple[int, float]]] = {}
    men, women, sims = a[order].tolist(), b[order].tolist(), s[order].tolist()
    for m, woman, sim in zip(men, women, sims):
        prefs.setdefault(m, []).append((woman, sim))

    free = deque(sorted(prefs))  # insertion order = ascending man id
    cursor = {m: 0 for m in prefs}  # next preference to propose to
    last_chance = {m: False for m in prefs}
    fiance: dict[int, int] = {}  # woman -> man
    weight_of: dict[int, float] = {}  # woman -> current engagement weight

    while free:
        m = free.popleft()
        plist = prefs[m]
        if cursor[m] < len(plist):
            woman, sim = plist[cursor[m]]
            cursor[m] += 1
            current = fiance.get(woman)
            if current is None:
                fiance[woman] = m
                weight_of[woman] = sim
            elif sim > weight_of[woman]:  # acceptsProposal
                fiance[woman] = m
                weight_of[woman] = sim
                free.append(current)  # the deposed man is free again
            else:
                free.append(m)  # rejected: try next preference
        elif not last_chance[m]:
            last_chance[m] = True
            cursor[m] = 0  # recoverInitialQueue
            free.append(m)

    return pairs_array(list(fiance.values()), list(fiance))
