"""Bipartite graph matching as a DataFrame -> DataFrame transformation.

``match_edges(edges, algorithm, t)`` takes a similarity-graph edge list
(columns ``v1``, ``v2``, ``w``) and returns the matched pairs (columns
``v1``, ``v2``).

Execution strategy
------------------
CNC, RSR, BMC, EXC, KRC and UMC decompose over connected components of
the similarity graph: matching decisions never cross components, and
within a component the algorithm's global processing order restricted
to that component is preserved. For them the transformation (i)
computes connected components distributedly (``core.components``),
(ii) groups edges by component, and (iii) runs the exact reference
matcher per component via ``applyInPandas``. Two algorithms do not
decompose and run as a single group over the whole graph: RCA keeps the
row or the column pass by comparing whole-graph weight totals, and BAH
performs a global random search (the paper's BAH is inherently
sequential/stochastic anyway).

Natively-dataflow implementations (no per-group Python kernels) are
also provided: CNC as a degree test (a pruned ``(v1, v2)`` pair whose
endpoints each have one distinct neighbour), EXC as mutual-best window
ranks and UMC as iterated locally-dominant edges;
``tests/test_spark_match.py`` asserts they agree with the reference
matchers.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .components import connected_components, encode_global
from .matchers import ALGORITHMS

_PAIR_SCHEMA = "v1 long, v2 long"

#: Algorithms whose output depends on the whole graph, not per component.
_GLOBAL = {"RCA", "BAH"}


def match_edges(edges: DataFrame, algorithm: str, t: float, **params) -> DataFrame:
    """Run one of the paper's 8 algorithms over an edge-list DataFrame.

    Parameters
    ----------
    edges : DataFrame(v1 long, v2 long, w double)
    algorithm : paper acronym, one of ``ALGORITHMS``.
    t : similarity threshold in [0, 1].
    params : algorithm extras (e.g. ``basis`` for BMC, ``seed``/
        ``max_moves`` for BAH).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    matcher = ALGORITHMS[algorithm]

    if algorithm in _GLOBAL:
        keyed = edges.withColumn("component", F.lit(0))
    else:
        enc = encode_global(edges)
        labels = connected_components(enc).withColumnRenamed("node", "src")
        keyed = enc.join(labels, on="src").drop("src", "dst")

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pairs = matcher(
            pdf["v1"].to_numpy(), pdf["v2"].to_numpy(), pdf["w"].to_numpy(), t, **params
        )
        return pd.DataFrame({"v1": pairs[:, 0], "v2": pairs[:, 1]})

    return keyed.groupBy("component").applyInPandas(run, schema=_PAIR_SCHEMA)


def cnc_native(edges: DataFrame, t: float) -> DataFrame:
    """CNC without Python kernels: distinct pruned pairs whose endpoints
    each have one distinct neighbour (exactly the 2-node components)."""
    pairs = edges.filter(F.col("w") >= t).select("v1", "v2").distinct()
    out = pairs
    for side in ("v1", "v2"):
        once = pairs.groupBy(side).count().filter("count = 1").select(side)
        out = out.join(once, on=side, how="left_semi")
    return out.select("v1", "v2")


def _rank_one(col_part: str, edges: DataFrame) -> DataFrame:
    """Edges that are the best (weight desc, ids asc) for ``col_part``."""
    other = "v2" if col_part == "v1" else "v1"
    win = Window.partitionBy(col_part).orderBy(
        F.col("w").desc(), F.col("v1").asc(), F.col("v2").asc()
    )
    return (
        edges.withColumn("_r", F.row_number().over(win))
        .filter("_r = 1")
        .drop("_r")
    )


def exc_native(edges: DataFrame, t: float) -> DataFrame:
    """EXC without Python kernels: mutual-best via two window ranks."""
    pruned = edges.filter(F.col("w") > t)
    best_l = _rank_one("v1", pruned)
    best_r = _rank_one("v2", pruned)
    return best_l.join(best_r, on=["v1", "v2", "w"]).select("v1", "v2")


def umc_native(edges: DataFrame, t: float, max_iter: int = 60) -> DataFrame:
    """UMC as iterated locally-dominant edge matching.

    An edge that is the top choice of both its endpoints (under the
    total order weight desc, v1 asc, v2 asc) is exactly the edge greedy
    UMC would pick next among the remaining ones, so repeatedly taking
    all locally-dominant edges and removing their endpoints reproduces
    the sequential greedy matching exactly. Raises ``RuntimeError`` if
    edges remain after ``max_iter`` rounds.
    """
    remaining = edges.filter(F.col("w") > t).localCheckpoint()
    spark = edges.sparkSession
    matched = spark.createDataFrame([], schema=_PAIR_SCHEMA)
    rounds = 0
    while not remaining.isEmpty():
        if rounds == max_iter:
            raise RuntimeError(f"umc_native: edges remain after {max_iter} rounds")
        rounds += 1
        dominant = (
            _rank_one("v1", remaining)
            .join(_rank_one("v2", remaining), on=["v1", "v2", "w"])
            .select("v1", "v2")
            .localCheckpoint()
        )
        matched = matched.union(dominant).localCheckpoint()
        remaining = (
            remaining.join(dominant.select("v1"), on="v1", how="left_anti")
            .join(dominant.select("v2"), on="v2", how="left_anti")
            .select("v1", "v2", "w")
            .localCheckpoint()
        )
    return matched
