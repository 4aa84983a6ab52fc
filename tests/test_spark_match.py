"""The distributed matching transformation vs the reference matchers,
and the native dataflow implementations (CNC/EXC/UMC) vs both."""
import numpy as np
import pandas as pd
import pytest

from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS
from repro.core.spark_match import cnc_native, exc_native, match_edges, umc_native


def random_graph(seed: int, n_left=25, n_right=20, m=120):
    rng = np.random.default_rng(seed)
    pairs = {
        (int(a), int(b))
        for a, b in zip(rng.integers(0, n_left, m), rng.integers(0, n_right, m))
    }
    v1 = np.array([a for a, _ in sorted(pairs)], dtype=np.int64)
    v2 = np.array([b for _, b in sorted(pairs)], dtype=np.int64)
    # distinct weights -> deterministic, order-free equivalences
    w = rng.permutation(len(v1)).astype(np.float64) / len(v1) * 0.98 + 0.01
    return v1, v2, w


def to_df(spark, v1, v2, w):
    return spark.createDataFrame(pd.DataFrame({"v1": v1, "v2": v2, "w": w}))


def collect_pairs(df) -> set:
    pdf = df.toPandas()
    return set(zip(pdf["v1"].astype(int), pdf["v2"].astype(int)))


@pytest.mark.parametrize("algo", ALGORITHM_ORDER)
def test_distributed_equals_reference(spark, algo):
    v1, v2, w = random_graph(seed=hash(algo) % 1000)
    t = 0.3
    kw = {"seed": 5} if algo == "BAH" else {}
    expected = {
        (int(a), int(b)) for a, b in ALGORITHMS[algo](v1, v2, w, t, **kw)
    }
    got = collect_pairs(match_edges(to_df(spark, v1, v2, w), algo, t, **kw))
    assert got == expected


def test_rca_runs_as_one_group(spark):
    """RCA keeps the pass with the larger whole-graph total, so it does
    not decompose: per component, {0} x {1, 2} would keep its row pass
    and match (0, 2) in place of (0, 1)."""
    v1 = np.array([0, 0, 10, 10, 12], dtype=np.int64)
    v2 = np.array([1, 2, 10, 11, 11], dtype=np.int64)
    w = np.array([0.55, 0.95, 0.45, 0.75, 0.95])
    expected = {(0, 1), (10, 10), (12, 11)}
    assert {(int(a), int(b)) for a, b in ALGORITHMS["RCA"](v1, v2, w, 0.0)} == expected
    assert collect_pairs(match_edges(to_df(spark, v1, v2, w), "RCA", 0.0)) == expected


def test_unknown_algorithm_rejected(spark):
    v1, v2, w = random_graph(0)
    with pytest.raises(ValueError):
        match_edges(to_df(spark, v1, v2, w), "XXX", 0.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cnc_native_equals_reference(spark, seed):
    v1, v2, w = random_graph(seed)
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["CNC"](v1, v2, w, 0.5)}
    got = collect_pairs(cnc_native(to_df(spark, v1, v2, w), 0.5))
    assert got == expected


def test_cnc_native_chain_star_duplicate(spark):
    # chain A0-B0-A1-B1, star A2-{B2,B3,B4}, A3-B5 twice, A4-B6 at w == t
    # (its 0.2 edge to B7 is pruned), A5-B8 below t
    v1 = np.array([0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5], dtype=np.int64)
    v2 = np.array([0, 0, 1, 2, 3, 4, 5, 5, 6, 7, 8], dtype=np.int64)
    w = np.array([0.9, 0.8, 0.7, 0.9, 0.6, 0.5, 0.9, 0.7, 0.5, 0.2, 0.4])
    expected = {(3, 5), (4, 6)}
    assert {(int(a), int(b)) for a, b in ALGORITHMS["CNC"](v1, v2, w, 0.5)} == expected
    got = cnc_native(to_df(spark, v1, v2, w), 0.5)
    assert got.columns == ["v1", "v2"]
    assert sorted(map(tuple, got.collect())) == sorted(expected)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_exc_native_equals_reference(spark, seed):
    v1, v2, w = random_graph(seed)
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["EXC"](v1, v2, w, 0.3)}
    got = collect_pairs(exc_native(to_df(spark, v1, v2, w), 0.3))
    assert got == expected


@pytest.mark.parametrize("seed", [7, 8])
def test_umc_native_equals_sequential_greedy(spark, seed):
    """Iterated locally-dominant matching == greedy UMC (distinct w)."""
    v1, v2, w = random_graph(seed, n_left=12, n_right=10, m=50)
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["UMC"](v1, v2, w, 0.1)}
    got = collect_pairs(umc_native(to_df(spark, v1, v2, w), 0.1))
    assert got == expected


def test_umc_native_raises_when_rounds_run_out(spark):
    # increasing weights along a path: one locally-dominant edge per
    # round, from the heavy end, so this path needs 3 rounds
    v1 = np.array([0, 1, 1, 2, 2, 3], dtype=np.int64)
    v2 = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
    w = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    df = to_df(spark, v1, v2, w)
    with pytest.raises(RuntimeError, match="edges remain"):
        umc_native(df, 0.0, max_iter=2)
    expected = {(int(a), int(b)) for a, b in ALGORITHMS["UMC"](v1, v2, w, 0.0)}
    assert collect_pairs(umc_native(df, 0.0, max_iter=3)) == expected


def test_match_edges_empty_result(spark):
    v1, v2, w = random_graph(9)
    got = match_edges(to_df(spark, v1, v2, w), "UMC", 0.999)
    assert got.count() == 0


def test_bmc_params_forwarded(spark):
    v1, v2, w = random_graph(10)
    left = collect_pairs(match_edges(to_df(spark, v1, v2, w), "BMC", 0.3, basis="left"))
    expected = {
        (int(a), int(b)) for a, b in ALGORITHMS["BMC"](v1, v2, w, 0.3, basis="left")
    }
    assert left == expected
