"""The repository benchmark: see run.py and METRICS.md."""
