"""Tests for the job-side SparkSession helper."""
from repro.harness.session import get_spark


class TestGetSpark:
    def test_reuses_active_session(self, spark):
        s = get_spark("probe")
        assert s is spark  # getOrCreate must not spawn a second JVM

    def test_config_matches_fixture_contract(self, spark):
        s = get_spark()
        assert s.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
        assert (
            s.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
        )

    def test_shuffle_partitions_match_cores(self, spark):
        s = get_spark()
        assert (int(s.conf.get("spark.sql.shuffle.partitions"))
                == s.sparkContext.defaultParallelism)
