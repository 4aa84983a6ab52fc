"""Unit tests for the 8 reference matchers, including the paper's
worked Figure-1 example (Sec. 3, "Example")."""
import numpy as np
import pytest

from repro.core.matchers import (
    ALGORITHM_ORDER,
    ALGORITHMS,
    bah,
    bmc,
    cnc,
    exc,
    krc,
    rca,
    rsr,
    umc,
)

# Figure 1(a): V1 = A1..A5 (left), V2 = B1..B4 (right). Weights chosen
# to match the paper's description: A5-B1 is the top edge (0.9), the
# alternative assignment A1-B1 + A5-B3 sums to 1.2 > 0.9, and A2-B2 /
# A3-B4 are isolated-pair components above the 0.5 threshold.
FIG1_V1 = np.array([1, 5, 5, 2, 3])
FIG1_V2 = np.array([1, 1, 3, 2, 4])
FIG1_W = np.array([0.6, 0.9, 0.6, 0.8, 0.7])
T = 0.5


def pairs(result) -> set:
    return {(int(a), int(b)) for a, b in result}


class TestFigure1:
    def test_cnc_keeps_only_two_node_components(self):
        # Figure 1(b): the 4-node component (A1,B1,A5,B3) is discarded.
        assert pairs(cnc(FIG1_V1, FIG1_V2, FIG1_W, T)) == {(2, 2), (3, 4)}

    def test_rca_finds_max_weight_assignment(self):
        # Figure 1(c): A1-B1 + A5-B3 (sum 1.2) beats A5-B1 (0.9).
        assert pairs(rca(FIG1_V1, FIG1_V2, FIG1_W, T)) == {
            (1, 1), (5, 3), (2, 2), (3, 4),
        }

    def test_bah_finds_max_weight_assignment(self):
        # BAH's random search converges to the optimum on this graph.
        assert pairs(bah(FIG1_V1, FIG1_V2, FIG1_W, T, seed=1)) == {
            (1, 1), (5, 3), (2, 2), (3, 4),
        }

    def test_umc_takes_top_weighted_edges(self):
        # Figure 1(d): A5-B1 first, then A2-B2, A3-B4.
        assert pairs(umc(FIG1_V1, FIG1_V2, FIG1_W, T)) == {
            (5, 1), (2, 2), (3, 4),
        }

    def test_exc_mutual_best(self):
        # Same output as UMC: each pair is mutually the best candidate.
        assert pairs(exc(FIG1_V1, FIG1_V2, FIG1_W, T)) == {
            (5, 1), (2, 2), (3, 4),
        }

    def test_bmc_basis_right_matches_umc(self):
        # The paper: BMC yields Figure 1(d) with V2 (blue) as basis.
        assert pairs(bmc(FIG1_V1, FIG1_V2, FIG1_W, T, basis="right")) == {
            (5, 1), (2, 2), (3, 4),
        }

    def test_bmc_basis_left_lets_a1_take_b1_first(self):
        assert pairs(bmc(FIG1_V1, FIG1_V2, FIG1_W, T, basis="left")) == {
            (1, 1), (5, 3), (2, 2), (3, 4),
        }

    def test_krc_proposals(self):
        # A5's 0.9 proposal deposes A1; A1 retries B1 and is rejected.
        assert pairs(krc(FIG1_V1, FIG1_V2, FIG1_W, T)) == {
            (5, 1), (2, 2), (3, 4),
        }

    def test_rsr_produces_valid_pairs(self):
        got = pairs(rsr(FIG1_V1, FIG1_V2, FIG1_W, T))
        assert {(2, 2), (3, 4)} <= got
        lefts = [a for a, _ in got]
        rights = [b for _, b in got]
        assert len(lefts) == len(set(lefts)) and len(rights) == len(set(rights))


@pytest.mark.parametrize("algo", ALGORITHM_ORDER)
class TestCommonBehaviour:
    def test_empty_graph(self, algo):
        out = ALGORITHMS[algo](np.array([]), np.array([]), np.array([]), 0.5)
        assert out.shape == (0, 2)

    def test_threshold_above_all_weights(self, algo):
        out = ALGORITHMS[algo](FIG1_V1, FIG1_V2, FIG1_W, 0.95)
        assert out.shape == (0, 2)

    def test_single_edge(self, algo):
        out = ALGORITHMS[algo](np.array([7]), np.array([9]), np.array([0.8]), 0.5)
        assert pairs(out) == {(7, 9)}

    def test_output_is_one_to_one(self, algo):
        rng = np.random.default_rng(3)
        v1 = rng.integers(0, 30, 200)
        v2 = rng.integers(0, 40, 200)
        # dedupe (v1, v2) to keep the edge list a proper graph
        uniq = {(int(a), int(b)): None for a, b in zip(v1, v2)}
        v1 = np.array([a for a, _ in uniq])
        v2 = np.array([b for _, b in uniq])
        w = rng.random(len(v1))
        out = ALGORITHMS[algo](v1, v2, w, 0.2)
        lefts = out[:, 0].tolist()
        rights = out[:, 1].tolist()
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    def test_deterministic(self, algo):
        rng = np.random.default_rng(5)
        v1 = np.repeat(np.arange(20), 5)
        v2 = np.tile(np.arange(5), 20)
        w = rng.random(100)
        a = ALGORITHMS[algo](v1, v2, w, 0.3)
        b = ALGORITHMS[algo](v1, v2, w, 0.3)
        assert np.array_equal(a, b)

    def test_pairs_are_graph_edges(self, algo):
        rng = np.random.default_rng(11)
        v1 = np.repeat(np.arange(15), 4)
        v2 = np.tile(np.arange(4), 15)
        w = rng.random(60)
        out = ALGORITHMS[algo](v1, v2, w, 0.4)
        edges = set(zip(v1.tolist(), v2.tolist()))
        assert pairs(out) <= edges


class TestUMC:
    def test_greedy_order(self):
        # top edge wins, its endpoints block lower edges
        v1 = np.array([1, 1, 2])
        v2 = np.array([1, 2, 1])
        w = np.array([0.9, 0.8, 0.85])
        assert pairs(umc(v1, v2, w, 0.0)) == {(1, 1)} | {(2, 1)} - {(2, 1)} | set()
        assert pairs(umc(v1, v2, w, 0.0)) == {(1, 1)}

    def test_strictly_greater_than_threshold(self):
        out = umc(np.array([1]), np.array([1]), np.array([0.5]), 0.5)
        assert out.shape == (0, 2)

    def test_tie_break_lower_ids_first(self):
        v1 = np.array([1, 2])
        v2 = np.array([5, 5])
        w = np.array([0.7, 0.7])
        assert pairs(umc(v1, v2, w, 0.0)) == {(1, 5)}


class TestCNC:
    def test_keeps_edges_at_threshold(self):
        # Alg. 2 discards weights *lower* than t: w == t survives
        out = cnc(np.array([1]), np.array([2]), np.array([0.5]), 0.5)
        assert pairs(out) == {(1, 2)}

    def test_chain_component_discarded(self):
        v1 = np.array([1, 2])
        v2 = np.array([1, 1])
        w = np.array([0.9, 0.9])
        assert cnc(v1, v2, w, 0.5).shape == (0, 2)

    def test_two_separate_pairs(self):
        v1 = np.array([1, 2])
        v2 = np.array([1, 2])
        w = np.array([0.9, 0.9])
        assert pairs(cnc(v1, v2, w, 0.5)) == {(1, 1), (2, 2)}


class TestEXC:
    def test_not_mutual_not_matched(self):
        # 1's best is B1, but B1's best is 2
        v1 = np.array([1, 2])
        v2 = np.array([1, 1])
        w = np.array([0.6, 0.9])
        assert pairs(exc(v1, v2, w, 0.0)) == {(2, 1)}

    def test_left_node_ids_equal_right_node_ids(self):
        # same numeric ids on both sides must not collide
        v1 = np.array([1, 1])
        v2 = np.array([1, 2])
        w = np.array([0.9, 0.5])
        assert pairs(exc(v1, v2, w, 0.0)) == {(1, 1)}


class TestRCA:
    def test_uses_subthreshold_edges_then_discards(self):
        # the 0.4 edge can block an assignment but is dropped at the end
        v1 = np.array([1, 2])
        v2 = np.array([1, 1])
        w = np.array([0.4, 0.3])
        assert rca(v1, v2, w, 0.5).shape == (0, 2)

    def test_picks_better_pass(self):
        # column scan beats row scan on this asymmetric graph
        v1 = np.array([1, 1, 2])
        v2 = np.array([1, 2, 1])
        w = np.array([0.9, 0.2, 0.8])
        # row pass: 1->B1 (0.9), 2 unassigned => 0.9
        # col pass: B1->A1 (0.9), B2->A1 taken... B2's best is A1 only
        got = pairs(rca(v1, v2, w, 0.1))
        assert (1, 1) in got

    def test_threshold_inclusive(self):
        out = rca(np.array([1]), np.array([1]), np.array([0.5]), 0.5)
        assert pairs(out) == {(1, 1)}

    def test_equal_totals_keep_row_pass(self):
        # row pass: A1->B2 (0.75), A3->B1 (0.25) = 1.0
        # col pass: B1->A1 (0.5), B2->A3 (0.5) = 1.0; d1 >= d2 keeps rows
        v1 = np.array([1, 1, 3, 3])
        v2 = np.array([1, 2, 1, 2])
        w = np.array([0.5, 0.75, 0.25, 0.5])
        assert pairs(rca(v1, v2, w, 0.0)) == {(1, 2), (3, 1)}


class TestBAH:
    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        v1 = np.repeat(np.arange(10), 6)
        v2 = np.tile(np.arange(6), 10)
        w = rng.random(60)
        a = bah(v1, v2, w, 0.2, seed=7)
        b = bah(v1, v2, w, 0.2, seed=7)
        assert np.array_equal(a, b)

    def test_max_moves_zero_keeps_initial_assignment(self):
        v1 = np.array([1, 2])
        v2 = np.array([1, 2])
        w = np.array([0.9, 0.9])
        out = bah(v1, v2, w, 0.5, max_moves=0)
        # initial pairing is positional over compacted ids
        assert pairs(out) <= {(1, 1), (2, 2), (1, 2), (2, 1)}

    def test_improves_total_weight(self):
        rng = np.random.default_rng(1)
        v1 = np.repeat(np.arange(8), 8)
        v2 = np.tile(np.arange(8), 8)
        w = rng.random(64)
        lut = {(int(a), int(b)): float(x) for a, b, x in zip(v1, v2, w)}
        w0 = sum(lut[p] for p in pairs(bah(v1, v2, w, 0.0, max_moves=0)))
        w1 = sum(lut[p] for p in pairs(bah(v1, v2, w, 0.0, max_moves=5000)))
        assert w1 >= w0


class TestKRC:
    def test_deposed_man_rematches(self):
        # A1 engages B1; A2 (0.9) deposes him; A1 falls back to B2.
        v1 = np.array([1, 1, 2])
        v2 = np.array([1, 2, 1])
        w = np.array([0.8, 0.6, 0.9])
        assert pairs(krc(v1, v2, w, 0.0)) == {(2, 1), (1, 2)}

    def test_equal_weight_rejected(self):
        # acceptance requires strictly higher weight
        v1 = np.array([1, 2])
        v2 = np.array([1, 1])
        w = np.array([0.7, 0.7])
        assert pairs(krc(v1, v2, w, 0.0)) == {(1, 1)}


class TestBMC:
    def test_invalid_basis_raises(self):
        with pytest.raises(ValueError):
            bmc(np.array([1]), np.array([1]), np.array([0.9]), 0.0, basis="top")

    def test_earlier_left_node_steals(self):
        # sequential semantics: A1 processed first takes B1 despite A2's
        # higher weight
        v1 = np.array([1, 2])
        v2 = np.array([1, 1])
        w = np.array([0.6, 0.9])
        assert pairs(bmc(v1, v2, w, 0.0, basis="left")) == {(1, 1)}
