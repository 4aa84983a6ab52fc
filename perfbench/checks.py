"""Correctness checks of the pipeline benchmark.

Two kinds of check run on every seed:

* an oracle check that needs no stored data: each (graph, algorithm)
  row of the distributed sweep is re-derived by running the reference
  matcher in-process at the row's chosen threshold, and each DataFrame
  matching call is compared pair by pair with the reference matcher;
* graph invariants: weights finite and in [0, 1], ``(v1, v2)`` unique.

Every run at the benchmark's input size is also compared with the
reference outputs committed for its D2 seed (``reference/``): every
graph, sweep row, table cell, Nemenyi rank and DataFrame call, as
recorded on the seed commit. A change that moves a table cell, a matcher
output or a chosen threshold is therefore a failure, not a gain.

Every check returns a list of failure messages; an empty list passes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pandas as pd

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: Sweep-row fields compared with the reference (runtime_ms is a timing).
RESULT_FIELDS = ("best_t", "precision", "recall", "f1", "n_predicted", "n_correct", "params")

_REL = 1e-9  # floats come from sums whose order may differ between runs


def reference_path(seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"d2_seed{seed}.json")


def load_reference(seed: int) -> dict | None:
    path = reference_path(seed)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def _same(a, b) -> bool:
    """Equality with a relative tolerance for floats; NaN equals None."""
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-12)
    return a == b


def _plain(v):
    """numpy/pandas scalars -> JSON-ready Python values (NaN -> None)."""
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return None if math.isnan(v) else float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


# ------------------------------------------------------------------ graphs
def graph_digest(edges: pd.DataFrame) -> dict:
    """Order-free fingerprint of one edge list.

    The (v1, v2) pairs are hashed exactly. Weights are summarised by
    sums compared with a tolerance, because Spark may add up a pair's
    similarity in a different order from run to run.
    """
    e = edges.sort_values(["v1", "v2"], kind="stable")
    v1 = e["v1"].to_numpy(np.int64)
    v2 = e["v2"].to_numpy(np.int64)
    w = e["w"].to_numpy(np.float64)
    h = hashlib.sha256(v1.tobytes() + v2.tobytes()).hexdigest()
    return {
        "n_edges": int(len(e)),
        "pairs_sha256": h,
        "w_sum": float(w.sum()),
        "w_sq_sum": float((w * w).sum()),
        "w_v1_sum": float((w * v1).sum()),
        "w_v2_sum": float((w * v2).sum()),
    }


def graph_invariants(edges: pd.DataFrame) -> list[str]:
    w = edges["w"].to_numpy(np.float64)
    errs = []
    if not np.isfinite(w).all() or (w < 0).any() or (w > 1).any():
        errs.append("weight outside [0, 1]")
    if edges.duplicated(["v1", "v2"]).any():
        errs.append("duplicate (v1, v2) edge")
    return errs


# ------------------------------------------------------------ sweep rows
def result_records(results: pd.DataFrame) -> dict[str, dict]:
    """``{"graph_id|algorithm": {field: value}}`` for the compared fields."""
    out = {}
    for r in results.itertuples(index=False):
        rec = {f: _plain(getattr(r, f)) for f in RESULT_FIELDS}
        rec["params"] = json.loads(rec["params"])
        out[f"{r.graph_id}|{r.algorithm}"] = rec
    return out


def compare_records(got: dict[str, dict], ref: dict[str, dict]) -> dict[str, list[str]]:
    """Per-key failures; a key missing on either side fails."""
    fails: dict[str, list[str]] = {}
    for key in sorted(set(got) | set(ref)):
        if key not in got or key not in ref:
            fails[key] = ["missing from " + ("output" if key not in got else "reference")]
            continue
        errs = [
            f"{f} {got[key][f]!r} != reference {ref[key][f]!r}"
            for f in ref[key]
            if not _same(got[key].get(f), ref[key][f])
        ]
        if errs:
            fails[key] = errs
    return fails


def oracle_row(row, edges: pd.DataFrame, truth: set, algorithms, prf) -> list[str]:
    """Re-run the reference matcher at the row's threshold; the counts
    and P/R/F1 the distributed sweep reported must follow from it."""
    params = json.loads(row.params)
    pairs = algorithms[row.algorithm](
        edges["v1"].to_numpy(), edges["v2"].to_numpy(), edges["w"].to_numpy(),
        float(row.best_t), **params,
    )
    p = prf(pairs, truth)
    want = {
        "n_predicted": p.n_predicted, "n_correct": p.n_correct,
        "precision": p.precision, "recall": p.recall, "f1": p.f1,
    }
    return [
        f"{k} {getattr(row, k)!r} != reference matcher {v!r}"
        for k, v in want.items()
        if not _same(_plain(getattr(row, k)), v)
    ]


# ------------------------------------------------------------------ tables
def table_record(frame: pd.DataFrame) -> dict:
    return {
        "columns": [str(c) for c in frame.columns],
        "rows": [[_plain(v) for v in row] for row in frame.itertuples(index=False)],
    }


def nemenyi_record(res) -> dict:
    return {
        "n": int(res.n),
        "chi2": float(res.chi2),
        "critical_distance": float(res.critical_distance),
        "reject_null": bool(res.reject_null),
        "mean_ranks": {str(k): float(v) for k, v in res.mean_ranks.items()},
    }


def compare_nested(got, ref, where: str = "") -> list[str]:
    """Recursive compare of JSON-like values with float tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [e for k in ref for e in compare_nested(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        return [e for i, (g, r) in enumerate(zip(got, ref))
                for e in compare_nested(g, r, f"{where}[{i}]")]
    return [] if _same(got, ref) else [f"{where}: {got!r} != reference {ref!r}"]


# ------------------------------------------------------------ match pairs
def pairs_record(pairs) -> dict:
    """Order-free fingerprint of a set of matched (v1, v2) pairs."""
    arr = np.asarray(sorted({(int(a), int(b)) for a, b in pairs}), dtype=np.int64)
    return {"n_pairs": int(len(arr)), "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}


def compare_pairs(got, want) -> list[str]:
    got_s = {(int(a), int(b)) for a, b in got}
    want_s = {(int(a), int(b)) for a, b in want}
    if got_s == want_s:
        return []
    return [
        f"{len(got_s - want_s)} extra and {len(want_s - got_s)} missing pairs "
        f"vs the reference matcher"
    ]
