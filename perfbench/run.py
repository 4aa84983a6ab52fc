#!/usr/bin/env python3
"""Pipeline benchmark of the CCER reproduction (workloads in BENCHMARK.json).

    python3 perfbench/run.py --workload sweep-d2 --seed 102 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
The benchmark drives the pipeline from outside, through its public
functions only, on the D2 (Abt-Buy) analogue generated from ``--seed``
(applied to the registry's D2 spec with ``dataclasses.replace``):

* ``sweep-d2``: set-up generates D2 and builds the 36 similarity graphs
  of the sa_syn, sb_sem and sa_sem families; a pass is ``run_sweep``
  with the defaults, ``clean``, Tables 3-9 (Table 7 on D2 only) and
  Nemenyi on F1/P/R. Table 2 is timed and checked in traced runs only
  (see ``table2_probe``).
* ``dfmatch-d2``: set-up builds the sb_syn family, caches its largest
  graph and makes one warm-up pass; a pass is 11 DataFrame matching
  calls on that graph (``match_edges`` x 8 algorithms, ``cnc_native``,
  ``exc_native``, ``umc_native``), each at its algorithm's best
  threshold t* as recorded in the reference.

Passes repeat until ``--seconds`` have elapsed (at least one pass; at
least ``SWEEP_MIN_PASSES`` on sweep-d2) and ``run_s`` is their median. Every
output is checked (see ``checks.py``), against the outputs of the seed
commit too: the inputs come from one of the D2 seeds whose outputs are
committed in ``reference/`` (``d2_seed``). A mismatch, an exception or a
missing reference counts as one failed operation. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced run also writes its spans,
per-layer self times and tracing overhead to
``.perfbench/traces/<workload>-seed<seed>.json``.

``--write-reference`` records the outputs of this run as the committed
reference for its seed instead of comparing against it.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import pandas as pd

import checks
from tracing import PeakMemory, Tracer, alive, child_pids

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sweep-d2", "dfmatch-d2")
DEFAULT_SEED = 102  # the registry's D2 seed
#: D2 seeds whose outputs at ENTITIES are committed in ``reference/``.
#: Any other --seed picks one of them (see ``d2_seed``), so every run is
#: compared with the outputs recorded on the seed commit.
REFERENCE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 102)
#: Entities per side. The registry's D2 has 360; at that size one
#: sweep-d2 run takes minutes, so the workloads use D2 at 1/6 scale per
#: side (all entities duplicates, as in D2) to fit the run budget.
ENTITIES = 60
#: 2 x the 4 local cores; the jobs' default of 64 is sized for the full
#: 10-dataset run.
SHUFFLE_PARTITIONS = 8
#: The run budget of both workloads does not fit a cold build of all 51
#: D2 graphs plus a sweep (about 35 s + 25 s on 4 cores), so the four
#: weight families are split: sweep-d2 builds and sweeps sa_syn (needed
#: by Table 7), sb_sem and sa_sem; dfmatch-d2 builds sb_syn and matches
#: its largest graph (one graph: a call costs 1-2 s of Spark jobs).
SWEEP_FAMILIES = ("sa_syn", "sb_sem", "sa_sem")
#: The first sweep pass of a run takes 10-25% longer than later ones
#: (JIT, first use in each Python worker); with three passes run_s, their
#: median, is a warm one. A warm-up pass in set-up instead would cost the
#: same time and leave two to measure.
SWEEP_MIN_PASSES = 3
DFMATCH_FAMILY = "sb_syn"
NATIVE = {"cnc_native": "CNC", "exc_native": "EXC", "umc_native": "UMC"}
NEMENYI_METRICS = ("f1", "precision", "recall")
COMPARED_TABLES = ("table3", "table4", "table5", "table7", "table8", "table9")


# ------------------------------------------------------------ environment
def _meminfo_kb() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pin_environment() -> dict:
    """Spark/worker environment of every run; must precede pyspark import.

    The JVM heap (SPARK_DRIVER_MEM) follows the verify command in
    ROADMAP.md (half of MemTotal, 2-8 GiB); ``sparkutil.get_spark`` would
    otherwise ask for 16g.
    Workers get ``src`` on PYTHONPATH, or ``mapInPandas`` cannot import
    ``repro``, and ``worker_site`` before it, whose ``sitecustomize``
    stops Python 3.11 from re-reading every zip archive on the import
    path before each Spark task (see its docstring). Spark and Python
    temporary files stay in ``.perfbench``.
    """
    cores = min(4, len(os.sched_getaffinity(0)))
    mem_kb = _meminfo_kb()
    driver_gib = min(8, max(2, mem_kb // 2097152))
    local_dir = os.path.join(WORK, "spark-local")
    tmp_dir = os.path.join(WORK, "tmp")
    for d in (local_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    paths = [os.path.join(HERE, "worker_site"), SRC]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ.update(
        {
            "SPARK_MASTER": f"local[{cores}]",
            "SPARK_DRIVER_MEM": f"{driver_gib}g",
            "SPARK_SHUFFLE_PARTITIONS": str(SHUFFLE_PARTITIONS),
            "SPARK_LOCAL_DIRS": local_dir,
            "TMPDIR": tmp_dir,
            "PYSPARK_PYTHON": sys.executable,
            "PYTHONPATH": os.pathsep.join(paths),
            "JAVA_TOOL_OPTIONS": f"-Djava.io.tmpdir={tmp_dir} -XX:-UsePerfData",
        }
    )
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # let get_spark compose it
    sys.path.insert(0, SRC)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_kb,
        "python": sys.version.split()[0],
        "spark_master": os.environ["SPARK_MASTER"],
        "driver_memory": os.environ["SPARK_DRIVER_MEM"],
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "git_commit": _git_commit(),
    }


def _versions(spark) -> dict:
    import numpy
    import pyarrow

    return {
        "java": spark.sparkContext._jvm.java.lang.System.getProperty("java.version"),
        "spark": spark.version,
        "numpy": numpy.__version__,
        "pandas": pd.__version__,
        "pyarrow": pyarrow.__version__,
    }


def stop_spark(spark) -> None:
    """Stop Spark, end its JVM and wait until no child process is left."""
    from pyspark import SparkContext

    # Python workers outlive the JVM briefly and are then re-parented, so
    # the processes to wait for are listed before anything stops.
    started = child_pids()
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    deadline = time.monotonic() + 30
    while alive(started) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive(started):
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    while alive(started):
        time.sleep(0.1)


def d2_seed(seed: int) -> int:
    """The D2 seed a --seed argument runs: itself if it has a committed
    reference, otherwise a fixed one of REFERENCE_SEEDS."""
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


# ------------------------------------------------------------------ bench
@dataclasses.dataclass
class Bench:
    """State shared by the set-up, passes and checks of one run."""

    spark: object
    tracer: object
    seed: int
    entities: int
    cores: int
    reference: dict | None
    write_reference: bool
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    layer: dict = dataclasses.field(default_factory=dict)

    @property
    def spec(self):
        from repro.datasets.registry import SPECS

        n = self.entities
        return dataclasses.replace(SPECS["D2"], seed=self.seed, n1=n, n2=n, n_dups=n)

    def check(self, what: str, errors: list[str]) -> None:
        """Count one checked operation; record it as failed on errors."""
        self.attempted += 1
        if errors:
            self.failures.append({"op": what, "errors": errors[:5]})

    def ref(self, section: str):
        """This seed's committed reference section, or None if unchecked.

        Checks that only compare with the reference are skipped, and not
        counted, when it is None: on --write-reference runs and on inputs
        of another size than ENTITIES (the self-tests)."""
        if self.reference is None or self.write_reference:
            return None
        return self.reference.get(section)


def build_graphs(b: Bench, families) -> tuple[str, object]:
    """Generate D2 and build the given weight families; one span each."""
    from repro.datasets.generator import generate_pandas
    from repro.simgraph.build import build_dataset_graphs

    spec = b.spec
    with b.tracer.span("datasets.generate"):
        df1, df2, _ = generate_pandas(spec)
    b.layer["datasets.entities"] = len(df1) + len(df2)
    out = os.path.join(WORK, "run", "graphs")
    shutil.rmtree(out, ignore_errors=True)
    parts = []
    for fam in families:
        with b.tracer.span(f"simgraph.{fam}", spark=True):
            parts.append(build_dataset_graphs(b.spark, spec, out, [fam]))
    manifest = pd.concat(parts, ignore_index=True)
    manifest.to_parquet(os.path.join(out, "manifest.parquet"))
    return out, manifest


def read_truth(out: str) -> set[tuple[int, int]]:
    """D2's ground-truth pairs, as build_dataset_graphs wrote them."""
    gt = pd.read_parquet(os.path.join(out, "D2__gt.parquet"))
    return set(zip(gt["v1"].astype(int), gt["v2"].astype(int)))


def check_graphs(b: Bench, manifest) -> dict:
    """Invariants of every graph, and its digest against the reference."""

    ref = b.ref("graphs")
    digests = {}
    for g in manifest.itertuples(index=False):
        edges = pd.read_parquet(g.path)
        digests[g.graph_id] = checks.graph_digest(edges)
        errs = checks.graph_invariants(edges)
        if ref is not None:
            errs += checks.compare_nested(digests[g.graph_id], ref.get(g.graph_id), g.graph_id)
        b.check(f"graph {g.graph_id}", errs)
    b.layer["simgraph.graphs"] = len(manifest)
    b.layer["simgraph.edges"] = int(manifest["n_edges"].sum())
    return digests


# --------------------------------------------------------------- sweep-d2
def sweep_pass(b: Bench, out: str, manifest) -> dict:
    """One researcher's regeneration of the D2 tables from its graphs."""
    from repro.experiments import tables as T
    from repro.experiments.cleaning import clean
    from repro.experiments.runner import run_sweep

    span = b.tracer.span
    with span("runner.run_sweep", spark=True):
        results = run_sweep(b.spark, manifest, out)
    with span("cleaning.clean"):
        cleaned = clean(results)
    tables = {}
    for name in ("table3", "table4", "table5", "table6"):
        with span(f"tables.{name}"):
            tables[name] = getattr(T, name)(cleaned)
    with span("tables.table7"):
        tables["table7"] = T.table7(manifest, out, datasets=("D2",))
    for name in ("table8", "table9"):
        with span(f"tables.{name}"):
            tables[name] = getattr(T, name)(cleaned)
    with span("stats.nemenyi"):
        nem = {m: T.nemenyi(cleaned, m) for m in NEMENYI_METRICS}
    return {"results": results, "cleaned": cleaned, "tables": tables, "nemenyi": nem}


def check_sweep(b: Bench, out: str, manifest, outputs: dict) -> dict:
    """Oracle and reference checks of one pass; returns its records."""
    from repro.core.matchers import ALGORITHMS
    from repro.core.metrics import prf_from_arrays

    results = outputs["results"]
    records = checks.result_records(results)
    ref = b.ref("results")
    ref_fails = checks.compare_records(records, ref) if ref is not None else {}
    paths = dict(zip(manifest["graph_id"], manifest["path"]))
    truth = read_truth(out)
    for gid, rows in results.groupby("graph_id"):
        edges = pd.read_parquet(paths[gid])
        for row in rows.itertuples(index=False):
            key = f"{gid}|{row.algorithm}"
            errs = checks.oracle_row(row, edges, truth, ALGORITHMS, prf_from_arrays)
            b.check(f"sweep {key}", errs + ref_fails.pop(key, []))
    for key, errs in ref_fails.items():  # reference rows the run lacks
        b.check(f"sweep {key}", errs)

    got_tables = {n: checks.table_record(outputs["tables"][n]) for n in COMPARED_TABLES}
    got_tables.update(
        {f"nemenyi_{m}": checks.nemenyi_record(r) for m, r in outputs["nemenyi"].items()}
    )
    ref_tables = b.ref("tables")
    if ref_tables is not None:
        for name, rec in got_tables.items():
            b.check(name, checks.compare_nested(rec, ref_tables.get(name), name))
    b.layer["cleaning.rows_in"] = len(results)
    b.layer["cleaning.rows_out"] = len(outputs["cleaned"])
    return {"results": records, "tables": got_tables}


def table2_probe(b: Bench, tables: dict) -> None:
    """Table 2 regenerates all 10 registry datasets at full size (11.5 s
    on 4 cores). It does not depend on the seed or on D2's graphs, and
    would be about 40% of a sweep-d2 pass, so passes leave it out; traced
    runs time and check it."""
    from repro.experiments.tables import table2

    with b.tracer.span("tables.table2"):
        tables["table2"] = checks.table_record(table2())
    ref = b.ref("tables")
    if ref is not None:
        b.check("table2", checks.compare_nested(tables["table2"], ref.get("table2"), "table2"))


def replay_sweep(b: Bench, out: str, manifest, sweep_wall_s: float) -> None:
    """Serial in-process replay of the sweep tasks, for layer times.

    Matcher and scoring calls run inside Spark's Python workers, which
    wrappers in this process cannot reach; replaying run_sweep's tasks here,
    with timing wrappers on the ``ALGORITHMS`` entries and on
    ``core.sweep.prf_from_arrays``, splits the sweep's serial busy time
    into matcher, scoring and parquet I/O.
    """
    import repro.core.sweep as sweep_mod
    from repro.core.matchers import ALGORITHM_ORDER, ALGORITHMS

    counters: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def timed(name, fn):
        def wrapper(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                c = counters[name]
                c[0] += 1
                c[1] += time.perf_counter() - t0

        return wrapper

    saved_algorithms, saved_prf = dict(ALGORITHMS), sweep_mod.prf_from_arrays
    for name, fn in saved_algorithms.items():
        ALGORITHMS[name] = timed(name, fn)
    sweep_mod.prf_from_arrays = timed("prf", saved_prf)
    gt_path = os.path.join(out, "D2__gt.parquet")
    task_s, io_reads = [], 0
    try:
        with b.tracer.span("replay"):
            for g in manifest.sort_values("n_edges", ascending=False).itertuples():
                for algo in ALGORITHM_ORDER:
                    with b.tracer.span("sweep.task") as task:
                        with b.tracer.span("sweep.io"):
                            edges = pd.read_parquet(g.path)
                            gt = pd.read_parquet(gt_path)
                        io_reads += 2
                        truth = set(zip(gt["v1"].astype(int), gt["v2"].astype(int)))
                        sweep_mod.sweep_graph(
                            edges["v1"].to_numpy(), edges["v2"].to_numpy(),
                            edges["w"].to_numpy(), truth, algorithms=[algo],
                        )
                    task_s.append(task["end"] - task["start"])
    finally:
        ALGORITHMS.update(saved_algorithms)
        sweep_mod.prf_from_arrays = saved_prf
    for name in ALGORITHM_ORDER:
        b.layer[f"matchers.{name}.calls"] = counters[name][0]
        b.layer[f"matchers.{name}.s"] = counters[name][1]
    b.layer["metrics.prf_calls"] = counters["prf"][0]
    b.layer["metrics.prf_s"] = counters["prf"][1]
    b.layer["sweep.io_reads"] = io_reads
    b.layer["sweep.io_s"] = b.tracer.total("sweep.io")
    busy = sum(task_s)
    b.layer["sweep.serial_busy_s"] = busy
    b.layer["runner.straggler_s"] = max(task_s)
    b.layer["runner.parallel_eff"] = busy / (sweep_wall_s * b.cores)


def run_sweep_d2(b: Bench, seconds: float, t_start: float) -> dict:
    out, manifest = build_graphs(b, SWEEP_FAMILIES)
    setup_s = time.perf_counter() - t_start
    digests = check_graphs(b, manifest)
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        outputs = sweep_pass(b, out, manifest)
        passes.append((time.perf_counter() - p0, outputs))
        if len(passes) >= SWEEP_MIN_PASSES and time.perf_counter() - t0 >= seconds:
            break
    records = [check_sweep(b, out, manifest, o) for _, o in passes]
    if b.tracer.enabled or b.write_reference:
        table2_probe(b, records[0]["tables"])
    walls = [w for w, _ in passes]
    n_results = sum(len(o["results"]) for _, o in passes)
    if b.tracer.enabled:
        tr = b.tracer
        b.layer["runner.spark_jobs"] = tr.total("runner.run_sweep", "jobs")
        b.layer["runner.spark_stages"] = tr.total("runner.run_sweep", "stages")
        b.layer["runner.spark_tasks"] = tr.total("runner.run_sweep", "tasks")
        sweep_wall = tr.total("runner.run_sweep") / len(passes)
        b.layer["runner.run_sweep_s"] = sweep_wall
        replay_sweep(b, out, manifest, sweep_wall)
    if b.write_reference:
        write_reference(b.seed, b.entities, {
            "graphs": digests, "results": records[0]["results"],
            "tables": records[0]["tables"],
        })
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(walls),
        "ops_per_s": n_results / sum(walls),
        "passes": len(passes),
        "pass_s": walls,
    }


# ------------------------------------------------------------- dfmatch-d2
def dfmatch_calls(b: Bench, out: str, pdf) -> list[dict]:
    """The fixed call order of a pass (8 algorithms, then the natives),
    each at its algorithm's best threshold t* on the matched graph.

    t* and BMC's basis come from the committed reference, so no sweep
    runs here. Only a run without one (--write-reference, or inputs of
    another size) sweeps the graph in-process to choose them.
    """
    from repro.core.matchers import ALGORITHM_ORDER

    names = list(ALGORITHM_ORDER) + list(NATIVE)
    ref = b.ref("dfmatch")
    if ref is not None:
        chosen = {name: (ref[name]["t"], ref[name]["params"]) for name in names}
    else:
        from repro.core.sweep import sweep_graph

        with b.tracer.span("sweep.t_star"):
            rows = sweep_graph(pdf["v1"].to_numpy(), pdf["v2"].to_numpy(),
                               pdf["w"].to_numpy(), read_truth(out), timing_reps=1)
        # BAH's sweep parameters are bah()'s defaults, so only BMC's basis is passed
        best = {r["algorithm"]: (r["best_t"], {"basis": r["params"]["basis"]}
                                 if r["algorithm"] == "BMC" else {}) for r in rows}
        chosen = {name: best[NATIVE.get(name, name)] for name in names}
    return [{"name": name, "algo": NATIVE.get(name, name), "t": chosen[name][0],
             "params": chosen[name][1]} for name in names]


def dfmatch_call(df, c: dict):
    from repro.core import spark_match

    if c["name"] in NATIVE:
        frame = getattr(spark_match, c["name"])(df, c["t"])
    else:
        frame = spark_match.match_edges(df, c["algo"], c["t"], **c["params"])
    return [(r["v1"], r["v2"]) for r in frame.collect()]


def components_probe(b: Bench, pdf, df) -> None:
    """Traced run only: the connected components match_edges computes."""
    from repro.core.components import connected_components, encode_global

    with b.tracer.span("components.cc", spark=True):
        labels = connected_components(encode_global(df)).toPandas()
    comp = dict(zip(labels["node"], labels["component"]))
    sizes = pdf["v1"].map(lambda v: comp[2 * v]).value_counts()
    tr = b.tracer
    b.layer["components.cc_s"] = tr.total("components.cc")
    b.layer["components.spark_stages"] = tr.total("components.cc", "stages")
    b.layer["components.n_components"] = labels["component"].nunique()
    b.layer["components.largest_edges"] = int(sizes.max())


def run_dfmatch_d2(b: Bench, seconds: float, t_start: float) -> dict:
    from repro.core.matchers import ALGORITHMS

    out, manifest = build_graphs(b, [DFMATCH_FAMILY])
    g = manifest.sort_values(["n_edges", "graph_id"], ascending=[False, True]).iloc[0]
    pdf = pd.read_parquet(g["path"])
    calls = dfmatch_calls(b, out, pdf)
    with b.tracer.span("dfmatch.load", spark=True):
        df = b.spark.createDataFrame(pdf).cache()
        df.count()
    # A first pass takes about 20% longer than later ones (JIT, first use
    # in each Python worker), so set-up makes one, unmeasured.
    with b.tracer.span("dfmatch.warmup", spark=True):
        for c in calls:
            dfmatch_call(df, c)
    setup_s = time.perf_counter() - t_start
    digests = check_graphs(b, manifest)

    passes, call_s = [], []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        got = []
        for c in calls:
            c0 = time.perf_counter()
            try:
                with b.tracer.span(f"spark_match.{c['name']}", spark=True):
                    got.append((dfmatch_call(df, c), None))
            except Exception as exc:  # a failed call is a failed operation
                got.append((None, repr(exc)))
            call_s.append(time.perf_counter() - c0)
        passes.append((time.perf_counter() - p0, got))
        if time.perf_counter() - t0 >= seconds:
            break

    if b.tracer.enabled:
        components_probe(b, pdf, df)
    ref = b.ref("dfmatch")
    ref_records, counters = {}, defaultdict(lambda: [0, 0.0])
    with b.tracer.span("matchers.reference"):
        for c in calls:
            m0 = time.perf_counter()
            c["want"] = ALGORITHMS[c["algo"]](
                pdf["v1"].to_numpy(), pdf["v2"].to_numpy(), pdf["w"].to_numpy(),
                c["t"], **c["params"],
            )
            counters[c["algo"]][0] += 1
            counters[c["algo"]][1] += time.perf_counter() - m0
            rec = ref_records[c["name"]] = {
                "graph_id": g["graph_id"], "t": c["t"], "params": c["params"],
                **checks.pairs_record(c["want"]),
            }
            if ref is not None:
                b.check(f"reference matcher {c['name']}",
                        checks.compare_nested(rec, ref.get(c["name"]), c["name"]))
    for _, got in passes:
        for c, (pairs, err) in zip(calls, got):
            errs = [err] if err else checks.compare_pairs(pairs, c["want"])
            b.check(f"dfmatch {c['name']}", errs)
    for algo, (n, s) in counters.items():
        b.layer[f"matchers.{algo}.calls"] = n
        b.layer[f"matchers.{algo}.s"] = s

    if b.tracer.enabled:
        tr, n = b.tracer, len(passes)
        for c in calls:
            b.layer[f"spark_match.{c['name']}_s"] = tr.total(f"spark_match.{c['name']}") / n
        for k in ("jobs", "stages", "tasks"):
            b.layer[f"spark_match.spark_{k}"] = tr.total("spark_match.", k) / n
        b.layer["spark_match.call_p50_s"] = statistics.median(call_s)
        b.layer["spark_match.call_p90_s"] = statistics.quantiles(
            call_s, n=10, method="inclusive")[8]
    if b.write_reference:
        write_reference(b.seed, b.entities, {"graphs": digests, "dfmatch": ref_records})
    walls = [w for w, _ in passes]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(walls),
        "ops_per_s": len(call_s) / sum(call_s),
        "passes": len(passes),
        "pass_s": walls,
        "calls": len(call_s),
    }


def write_reference(seed: int, entities: int, sections: dict) -> None:
    ref = checks.load_reference(seed) or {}
    ref.setdefault("graphs", {}).update(sections.pop("graphs"))  # both workloads add some
    ref.update({"seed": seed, "entities": entities, **sections})
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    with open(checks.reference_path(seed), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------- metrics
def layer_metrics(b: Bench) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 where this workload
    does not call the layer."""
    tr = b.tracer
    for fam in ("sb_syn", "sa_syn", "sb_sem", "sa_sem"):
        b.layer[f"simgraph.{fam}_s"] = tr.total(f"simgraph.{fam}")
    b.layer["datasets.generate_s"] = tr.total("datasets.generate")
    for k in ("stages", "tasks"):
        b.layer[f"simgraph.spark_{k}"] = tr.total("simgraph.", k)
    b.layer["cleaning.clean_s"] = tr.total("cleaning.clean")
    for i in range(2, 10):
        b.layer[f"tables.table{i}_s"] = tr.total(f"tables.table{i}")
    b.layer["stats.nemenyi_s"] = tr.total("stats.nemenyi")
    b.layer["trace.overhead_s"] = tr.bookkeeping_s
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    return {n: {"value": float(b.layer.get(n, 0)), "unit": units[n]} for n in units}


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def write_trace(workload: str, b: Bench, env: dict, summary: dict) -> str:
    tr = b.tracer
    by_layer: dict[str, float] = defaultdict(float)
    for name, s in tr.self_times().items():
        by_layer[name.split(".")[0]] += s
    busy = b.layer.get("sweep.serial_busy_s")
    if busy:  # the replay's matcher and scoring time lies inside sweep.task spans
        matchers = sum(v for k, v in b.layer.items()
                       if k.startswith("matchers.") and k.endswith(".s"))
        by_layer["matchers"] += matchers
        by_layer["metrics"] += b.layer["metrics.prf_s"]
        by_layer["sweep"] -= matchers + b.layer["metrics.prf_s"]
        summary["replay_share_of_serial_busy"] = {
            "matchers": matchers / busy,
            "metrics": b.layer["metrics.prf_s"] / busy,
            "sweep.io": b.layer["sweep.io_s"] / busy,
        }
    path = os.path.join(WORK, "traces", f"{workload}-seed{b.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {
                "workload": workload,
                "env": env,
                "summary": summary,
                # time spent inside the tracer: span records, job groups,
                # listener-bus drains and status-tracker reads
                "tracing_overhead_s": tr.bookkeeping_s,
                "self_time_by_span_s": tr.self_times(),
                "self_time_by_layer_s": dict(by_layer),
                "layer_metrics": b.layer,
                "spans": tr.spans,
            },
            f,
            indent=1,
        )
    return path


# ------------------------------------------------------------------- main
def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--entities", type=int, default=ENTITIES,
                   help="entities per side of the D2 analogue (self-tests shrink it)")
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's outputs as the reference for its seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = pin_environment()
    seed = args.seed if args.write_reference else d2_seed(args.seed)
    reference = checks.load_reference(seed)
    if reference is not None and reference.get("entities") != args.entities:
        reference = None
    run = {"sweep-d2": run_sweep_d2, "dfmatch-d2": run_dfmatch_d2}[args.workload]
    with PeakMemory() as mem:
        t_start = time.perf_counter()
        from repro.sparkutil import get_spark

        spark = get_spark("perfbench")
        try:
            spark.sparkContext.setLogLevel("ERROR")
            env["spark_start_s"] = time.perf_counter() - t_start
            env.update(_versions(spark))
            env.update(seed=args.seed, d2_seed=seed, entities=args.entities,
                       reference=reference is not None)
            cores = int(env["spark_master"][len("local["):-1])
            b = Bench(spark, Tracer(spark.sparkContext, bool(args.trace)), seed,
                      args.entities, cores, reference, args.write_reference)
            if reference is None and args.entities == ENTITIES and not args.write_reference:
                b.check("reference", [f"no committed reference for D2 seed {seed}"])
            summary = run(b, args.seconds, t_start)
        finally:
            stop_spark(spark)
    summary["py_peak_pss_mb"] = mem.py_peak_mb
    summary["tree_peak_pss_mb"] = mem.tree_peak_mb
    b.layer["spark.jvm_peak_pss_mb"] = mem.jvm_peak_mb
    summary["wall_s"] = time.perf_counter() - t_start
    failed = len(b.failures)
    summary.update(attempted=b.attempted, failed=failed,
                   fail_frac=failed / max(1, b.attempted))
    if args.trace:
        metrics = layer_metrics(b)
        summary["trace_file"] = write_trace(args.workload, b, env, summary)
    else:
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
        metrics = {n: {"value": float(summary[n]), "unit": u} for n, u in units.items()}
    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary}))
    for fail in b.failures[:20]:
        print(json.dumps({"failure": fail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": b.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
