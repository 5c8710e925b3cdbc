"""Spans, process-tree memory and Spark job counts for the benchmark.

Spans are kept in memory and written out once, at the end of a run.
Nothing here touches the program under test: spans wrap the
benchmark's own calls into it.
"""
from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_PAGE = os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """Records (name, start, end, parent) spans when enabled; a no-op
    recorder otherwise, so the untraced run pays nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = {"id": idx, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}, indent=1))


def tree_rss_bytes(root_pid: int | None = None) -> tuple[int, int]:
    """Resident bytes of a process and all its descendants (driver
    Python, the Spark JVM and the Python workers it forks), as
    (all processes, Python processes only)."""
    root_pid = root_pid or os.getpid()
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    total = python = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        try:
            rss = int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * _PAGE
            is_python = Path(f"/proc/{pid}/comm").read_text().startswith("python")
        except OSError:
            rss, is_python = 0, False
        total += rss
        python += rss if is_python else 0
        todo.extend(children.get(pid, ()))
    return total, python


class PeakRss:
    """Background sampler of the process tree's RSS; keeps the peaks of
    the whole tree and of its Python processes."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak = self.python_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        total, python = tree_rss_bytes()
        self.peak = max(self.peak, total)
        self.python_peak = max(self.python_peak, python)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def _drain_listener(sc) -> None:
    """Wait until Spark's listener bus has delivered every job and task
    event, so the status tracker's counts are complete."""
    from py4j.protocol import Py4JError

    try:
        sc._jsc.sc().listenerBus().waitUntilEmpty(30_000)
    except Py4JError:
        time.sleep(1.0)


@contextmanager
def job_group(spark, name: str, out: dict):
    """Run a block under a Spark job group; afterwards ``out`` holds the
    group's jobs, the tasks its stages ran and how many of those failed,
    from the status tracker."""
    sc = spark.sparkContext
    sc.setJobGroup(name, name)
    try:
        yield
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        _drain_listener(sc)
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(name)
        stages = set()
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            stages.update(info.stageIds if info else ())
        tasks = failed = 0
        for sid in stages:
            stage = tracker.getStageInfo(sid)
            if stage:
                tasks += stage.numCompletedTasks
                failed += stage.numFailedTasks
        out.update(jobs=len(jobs), tasks=tasks, tasks_failed=failed)
