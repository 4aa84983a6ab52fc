"""Hypothesis property tests: every matcher emits a valid 1-1 matching
over existing edges; algorithm-specific invariants (UMC = sequential
greedy, EXC subset of mutual-best, CNC isolated edges, matched pairs
meet each algorithm's threshold rule). The structural properties also
run on graphs with tied weights and repeated (v1, v2) edges."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS, cnc, exc, umc


@st.composite
def bipartite_graphs(draw, ties: bool = False):
    """Random bipartite edge lists with distinct weights.

    With ``ties``, (v1, v2) pairs may repeat and weights come from a few
    values, some equal to the drawn threshold.
    """
    n_left = draw(st.integers(1, 12))
    n_right = draw(st.integers(1, 12))
    possible = [(a, b) for a in range(n_left) for b in range(n_right)]
    k = draw(st.integers(1, 40 if ties else min(40, len(possible))))
    idx = draw(
        st.lists(
            st.integers(0, len(possible) - 1), min_size=k, max_size=k, unique=not ties
        )
    )
    edges = [possible[i] for i in idx]
    v1 = np.array([a for a, _ in edges], dtype=np.int64)
    v2 = np.array([b for _, b in edges], dtype=np.int64)
    if ties:
        ws = draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.9]), min_size=k, max_size=k))
        w = np.array(ws, dtype=np.float64)
    else:
        # distinct weights make greedy equivalences exact
        ws = draw(
            st.lists(
                st.integers(1, 10_000), min_size=k, max_size=k, unique=True
            )
        )
        w = np.array(ws, dtype=np.float64) / 10_000.0
    t = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7]))
    return v1, v2, w, t


#: Distinct-weight graphs and tied-weight graphs with repeated edges.
any_graphs = st.one_of(bipartite_graphs(), bipartite_graphs(ties=True))


def first_of_each_pair(v1, v2, w):
    """Drop repeated (v1, v2) edges, keeping each pair's first one."""
    _, first = np.unique(np.column_stack((v1, v2)), axis=0, return_index=True)
    first.sort()
    return v1[first], v2[first], w[first]


def greedy_reference(v1, v2, w, t):
    """Sequential greedy matching (UMC's definition) as a plain loop."""
    order = sorted(range(len(w)), key=lambda i: (-w[i], v1[i], v2[i]))
    ml, mr, out = set(), set(), set()
    for i in order:
        if w[i] <= t:
            continue
        if v1[i] not in ml and v2[i] not in mr:
            out.add((int(v1[i]), int(v2[i])))
            ml.add(v1[i])
            mr.add(v2[i])
    return out


@pytest.mark.parametrize("algo", ALGORITHM_ORDER)
@given(g=any_graphs)
@settings(max_examples=30, deadline=None)
def test_valid_matching_over_graph_edges(algo, g):
    v1, v2, w, t = g
    if algo == "BAH":  # BAH assumes (v1, v2) is a key
        v1, v2, w = first_of_each_pair(v1, v2, w)
    out = ALGORITHMS[algo](v1, v2, w, t)
    got = {(int(a), int(b)) for a, b in out}
    edges = set(zip(v1.tolist(), v2.tolist()))
    assert got <= edges, "matched a non-existent pair"
    assert len({a for a, _ in got}) == len(got), "left node reused"
    assert len({b for _, b in got}) == len(got), "right node reused"


@given(g=any_graphs)
@settings(max_examples=60, deadline=None)
def test_umc_equals_sequential_greedy(g):
    v1, v2, w, t = g
    got = {(int(a), int(b)) for a, b in umc(v1, v2, w, t)}
    assert got == greedy_reference(v1, v2, w, t)


@given(g=bipartite_graphs())
@settings(max_examples=40, deadline=None)
def test_exc_pairs_are_mutual_best(g):
    v1, v2, w, t = g
    lut = {}
    best_l, best_r = {}, {}
    for a, b, s in zip(v1, v2, w):
        if s <= t:
            continue
        lut[(int(a), int(b))] = s
        if a not in best_l or s > lut[(a, best_l[a])]:
            best_l[int(a)] = int(b)
        if b not in best_r or s > lut[(best_r[b], b)]:
            best_r[int(b)] = int(a)
    got = {(int(a), int(b)) for a, b in exc(v1, v2, w, t)}
    for a, b in got:
        assert best_l[a] == b and best_r[b] == a


@given(g=any_graphs)
@settings(max_examples=40, deadline=None)
def test_cnc_pairs_are_isolated_edges(g):
    v1, v2, w, t = g
    # distinct pairs: a repeated edge is still a 2-node component
    kept = {(int(a), int(b)) for a, b, s in zip(v1, v2, w) if s >= t}
    got = {(int(a), int(b)) for a, b in cnc(v1, v2, w, t)}
    deg_l, deg_r = {}, {}
    for a, b in kept:
        deg_l[a] = deg_l.get(a, 0) + 1
        deg_r[b] = deg_r.get(b, 0) + 1
    for a, b in got:
        assert deg_l[a] == 1 and deg_r[b] == 1, "CNC matched a non-isolated edge"
    # conversely every isolated edge is matched
    for a, b in kept:
        if deg_l[a] == 1 and deg_r[b] == 1:
            assert (a, b) in got


@pytest.mark.parametrize("algo", ["RCA", "KRC", "BMC", "UMC", "EXC"])
@given(g=any_graphs)
@settings(max_examples=25, deadline=None)
def test_matched_weights_meet_threshold(algo, g):
    v1, v2, w, t = g
    heaviest: dict[tuple[int, int], float] = {}  # over repeated edges
    for a, b, s in zip(v1.tolist(), v2.tolist(), w.tolist()):
        heaviest[(a, b)] = max(s, heaviest.get((a, b), s))
    out = ALGORITHMS[algo](v1, v2, w, t)
    for a, b in out:
        # RCA keeps >= t (Alg. 3); the others are strict
        s = heaviest[(int(a), int(b))]
        assert s >= t if algo == "RCA" else s > t


@given(g=bipartite_graphs())
@settings(max_examples=25, deadline=None)
def test_umc_is_maximal(g):
    """Greedy matchings are maximal: no remaining edge has both
    endpoints unmatched."""
    v1, v2, w, t = g
    got = {(int(a), int(b)) for a, b in umc(v1, v2, w, t)}
    ml = {a for a, _ in got}
    mr = {b for _, b in got}
    for a, b, s in zip(v1, v2, w):
        if s > t:
            assert int(a) in ml or int(b) in mr
