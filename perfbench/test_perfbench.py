"""Self-tests of the pipeline benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

The check tests need no Spark. The end-to-end tests run each workload on
a tiny D2 analogue (20 entities per side) in a subprocess, as the
benchmark is run, and take a few minutes.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from repro.core.matchers import ALGORITHMS  # noqa: E402
from repro.core.metrics import prf_from_arrays  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def small_graph():
    rng = np.random.default_rng(3)
    pairs = sorted({(int(a), int(b)) for a, b in rng.integers(0, 12, size=(60, 2))})
    edges = pd.DataFrame(pairs, columns=["v1", "v2"])
    edges["w"] = rng.permutation(len(edges)) / len(edges)
    umc = ALGORITHMS["UMC"](edges["v1"], edges["v2"], edges["w"], 0.5)
    truth = {(int(a), int(b)) for a, b in umc}
    return edges, truth


def sweep_row(edges, truth, algo="UMC", t=0.3):
    pairs = ALGORITHMS[algo](edges["v1"], edges["v2"], edges["w"], t)
    p = prf_from_arrays(pairs, truth)
    return pd.DataFrame([{
        "graph_id": "g", "algorithm": algo, "best_t": t, "precision": p.precision,
        "recall": p.recall, "f1": p.f1, "n_predicted": p.n_predicted,
        "n_correct": p.n_correct, "runtime_ms": 1.0, "params": "{}",
    }])


def test_perturbed_best_t_is_flagged():
    edges, truth = small_graph()
    results = sweep_row(edges, truth)
    ref = checks.result_records(results)
    assert checks.compare_records(checks.result_records(results), ref) == {}
    bad = results.assign(best_t=0.7)
    assert list(checks.compare_records(checks.result_records(bad), ref)) == ["g|UMC"]
    row = next(bad.itertuples(index=False))
    assert checks.oracle_row(row, edges, truth, ALGORITHMS, prf_from_arrays)


def test_oracle_accepts_the_true_row_and_flags_wrong_counts():
    edges, truth = small_graph()
    results = sweep_row(edges, truth)
    row = next(results.itertuples(index=False))
    assert checks.oracle_row(row, edges, truth, ALGORITHMS, prf_from_arrays) == []
    row = next(results.assign(n_predicted=results["n_predicted"] + 1).itertuples(index=False))
    assert checks.oracle_row(row, edges, truth, ALGORITHMS, prf_from_arrays)


def test_dropped_matched_pair_is_flagged():
    edges, _ = small_graph()
    pairs = ALGORITHMS["KRC"](edges["v1"], edges["v2"], edges["w"], 0.2)
    assert len(pairs) > 1
    assert checks.compare_pairs(pairs, pairs) == []
    assert checks.compare_pairs(pairs[1:], pairs)
    rec = checks.pairs_record(pairs)
    assert checks.compare_nested(checks.pairs_record(pairs[1:]), rec, "k")


def test_graph_digest_is_order_free_and_flags_changed_weights():
    edges, _ = small_graph()
    ref = checks.graph_digest(edges)
    shuffled = edges.sample(frac=1.0, random_state=1)
    assert checks.compare_nested(checks.graph_digest(shuffled), ref) == []
    moved = edges.assign(w=edges["w"].where(edges.index != 0, 0.999))
    assert checks.compare_nested(checks.graph_digest(moved), ref)
    assert checks.graph_invariants(edges) == []
    assert checks.graph_invariants(pd.concat([edges, edges.head(1)]))


def test_changed_table_cell_is_flagged():
    frame = pd.DataFrame({"algorithm": ["UMC", "KRC"], "f1_mu": [0.5, np.nan]})
    ref = checks.table_record(frame)
    assert checks.compare_nested(checks.table_record(frame.copy()), ref) == []
    frame.loc[0, "f1_mu"] = 0.51
    assert checks.compare_nested(checks.table_record(frame), ref)


def test_every_seed_runs_against_a_committed_reference():
    import run

    for seed in run.REFERENCE_SEEDS:
        ref = checks.load_reference(seed)
        assert ref is not None and ref["seed"] == seed
        assert ref["entities"] == run.ENTITIES
        assert {"graphs", "results", "tables", "dfmatch"} <= set(ref)
    for seed in [0, 7, 11, 102, 103, 12345, 2**31 - 1]:
        assert run.d2_seed(seed) in run.REFERENCE_SEEDS
        assert run.d2_seed(seed) == run.d2_seed(seed)
    assert run.d2_seed(run.DEFAULT_SEED) == 102 and run.d2_seed(7) == 7


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "sweep-d2", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--entities", "20")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
