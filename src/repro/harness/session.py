"""SparkSession builder for the spark-submit jobs.

The jobs in ``jobs/`` run standalone under spark-submit and build their
session here; the tests' ``spark`` fixture in conftest.py builds its
session here too, so the shuffle/Arrow/broadcast settings are written
once.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app_name: str = "repro") -> SparkSession:
    """Session with the reproduction's standard config (broadcast joins
    disabled so label joins exercise the shuffle path)."""
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
