"""SparkSession builder for the spark-submit jobs.

The jobs in ``jobs/`` run standalone under spark-submit and build their
session here; the tests' ``spark`` fixture in conftest.py builds its
session here too, so the shuffle/Arrow/broadcast settings are written
once. Shuffles get one partition per core of the session: the
ground-truth passes are small enough that per-partition task costs,
not data, set their time.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app_name: str = "repro") -> SparkSession:
    """Session with the reproduction's standard config (broadcast joins
    disabled so label joins exercise the shuffle path; as many shuffle
    partitions as ``defaultParallelism``)."""
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    spark.conf.set("spark.sql.shuffle.partitions",
                   spark.sparkContext.defaultParallelism)
    return spark
