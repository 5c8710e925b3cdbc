"""Pinned environment for every benchmark process.

Call ``pin(root)`` before anything imports pyspark: it fixes
PYTHONHASHSEED (re-executing the interpreter once if needed), the
Spark master ``local[n]`` with n <= nproc, the driver memory by the
tier-1 formula, and keeps every temporary file under the checkout.
"""
from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HASH_SEED = "0"
MAX_CORES = 4


def cores() -> int:
    return max(1, min(MAX_CORES, os.cpu_count() or 1))


def mem_total_kib() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def driver_mem() -> str:
    """Tier-1 formula: half of MemTotal in GiB, clamped to [2, 8]."""
    return f"{min(8, max(2, mem_total_kib() // 2097152))}g"


def pin(root: Path) -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    sys.path[:0] = [src, str(root)]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, str(root)])
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] --driver-memory {driver_mem()} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        f"--conf spark.local.dir={tmp} "
        f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )


def start_spark():
    from repro.harness.session import get_spark

    return get_spark("perfbench")


def shutdown(spark) -> None:
    """Stop the session and the JVM it launched, and wait for both."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def cleanup() -> None:
    tmp = Path(os.environ["TMPDIR"])
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.parent.rmdir()
    except OSError:  # another benchmark process still uses it
        pass


def record(root: Path) -> dict:
    """What a result needs to be compared with another."""
    import numpy
    import pyspark

    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "spark_cores": cores(),
        "mem_total_mib": mem_total_kib() // 1024, "driver_mem": driver_mem(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(), "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }
