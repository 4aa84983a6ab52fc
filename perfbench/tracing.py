"""Spans, Spark counters and process-tree memory for the pipeline benchmark.

Spans are recorded only around the benchmark's own calls into the
pipeline's layers; nothing inside the program is instrumented. Spark
work per span is counted from outside: a span that drives Spark sets a
job group, and when it ends the jobs, stages and tasks of that group are
read back from ``SparkContext.statusTracker``.
"""
from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    A span is ``{id, name, parent, start, end}`` plus, for spans opened
    with ``spark=True``, the ``jobs``/``stages``/``tasks`` Spark ran for
    it. Spark spans must not nest: one job group is active at a time.
    """

    def __init__(self, sc, enabled: bool):
        self.sc = sc
        self.enabled = enabled
        self.spans: list[dict] = []
        self.bookkeeping_s = 0.0  # time spent inside the tracer itself
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, spark: bool = False):
        if not self.enabled:
            yield None
            return
        t0 = time.perf_counter()
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        group = f"perfbench-{rec['id']}"
        if spark:
            self.sc.setJobGroup(group, name)
        rec["start"] = time.perf_counter()
        self.bookkeeping_s += rec["start"] - t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if spark:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)
                rec.update(spark_counts(self.sc, group))
            self.bookkeeping_s += time.perf_counter() - rec["end"]

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def total(self, prefix: str, key: str = "dur") -> float:
        """Sum of ``key`` (or duration) over spans whose name starts so."""
        acc = 0.0
        for s in self.spans:
            if s["name"].startswith(prefix):
                acc += s["end"] - s["start"] if key == "dur" else s.get(key, 0)
        return acc


def spark_counts(sc, group: str) -> dict[str, int]:
    """Jobs, stages that ran tasks, and completed tasks of a job group.

    The status store is fed by Spark's asynchronous listener bus, so the
    bus is drained first; otherwise the last stage of a job that has
    just returned may not be counted yet.
    """
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for sid in info.stageIds if info else ():
            si = st.getStageInfo(sid)
            if si is not None and si.numCompletedTasks > 0:
                stages += 1
                tasks += si.numCompletedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks}


def _descendants(root: int) -> list[int]:
    """``root`` and every live process below it, from /proc."""
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children[ppid].append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def child_pids() -> list[int]:
    """Live descendants of this process (excluding itself)."""
    return _descendants(os.getpid())[1:]


def alive(pids: list[int]) -> list[int]:
    """The given processes that have not exited (zombies count as exited)."""
    out = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            out.append(pid)
    return out


def _pss_kb(pid: int) -> int:
    """Proportional set size of one process: each shared page is split
    among the processes that map it, so PSS adds up across a tree."""
    with open(f"/proc/{pid}/smaps_rollup") as f:
        for line in f:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise ValueError(f"no Pss in /proc/{pid}/smaps_rollup")


def tree_pss_bytes(root: int) -> tuple[int, int]:
    """Proportional set size of the tree below ``root``: (Python side, JVM)."""
    py = jvm = 0
    for pid in _descendants(root):
        try:
            with open(f"/proc/{pid}/comm") as f:
                is_jvm = f.read().strip() == "java"
            pss = _pss_kb(pid) * 1024
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
        if is_jvm:
            jvm += pss
        else:
            py += pss
    return py, jvm


class PeakMemory:
    """Samples the memory of this process tree in a thread.

    The tree is this process, the Spark JVM it launches and the JVM's
    Python workers. Memory is PSS, not RSS: forked PySpark workers share
    copy-on-write pages with their daemon, and RSS would count those
    pages once per worker, so the total would follow how many idle
    workers happen to be alive. Peaks are kept apart for the Python side
    (this process and the workers) and for the JVM, whose peak follows
    G1 heap growth and moved by about 20% between identical runs. Use as
    a context manager; the peaks are valid afterwards.
    """

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.py_peak_mb = self.jvm_peak_mb = self.tree_peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        py, jvm = (x / 2**20 for x in tree_pss_bytes(os.getpid()))
        self.py_peak_mb = max(self.py_peak_mb, py)
        self.jvm_peak_mb = max(self.jvm_peak_mb, jvm)
        self.tree_peak_mb = max(self.tree_peak_mb, py + jvm)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        return False
