"""The repository's benchmark: one command per workload.

    python3 perfbench/run.py --workload nrmse-orkut --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. With ``--trace 0`` it sets up three
times (Spark session, dataset generation, pair selection) plus one
untimed warm-up, then issues the workload's operation in a closed loop
for ``--seconds`` and at least MIN_OPS times, each with its own seed
derived from ``--seed``, checks every result and then the run's pooled
results, and reports the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` it
runs the operation plain, with layer spans and plain again, then probes
each layer and reports the per-layer metrics. The last line of stdout
is one JSON object: correct, attempted, failed, metrics. A full record
(environment, samples, failures, spans) goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 2
SETUP_REPS = 3
# Operation i of a run uses seed ``seed * OP_SEED_STRIDE + i``.
OP_SEED_STRIDE = 1000


def parse_args(names: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


class Run:
    """One benchmark process: set-up, operations, checks, metrics."""

    def __init__(self, workload, seed: int, tracer):
        self.w, self.seed, self.tracer = workload, seed, tracer
        self.spark = None
        self.state: dict = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.results: list = []

    def setup(self) -> float:
        """SETUP_REPS set-ups, each a Spark session (the first launches the
        JVM, later ones restart the context in it) plus dataset generation
        and pair selection from cold caches; then one warm-up operation.
        Returns the median set-up plus the warm-up."""
        from perfbench import env

        reps = []
        for i in range(SETUP_REPS):
            with self.tracer.span("setup", rep=i):
                t0 = time.perf_counter()
                if self.spark is not None:
                    self.spark.stop()
                with self.tracer.span("setup.session"):
                    self.spark = env.start_spark()
                with self.tracer.span("setup.dataset"):
                    self.state = self.w.prepare(self.spark)
                reps.append(time.perf_counter() - t0)
            self.samples.setdefault("gen.load_s", []).append(self.state["gen_s"])
        self.samples["setup.rep_s"] = reps
        with self.tracer.span("setup.warmup"):
            t0 = time.perf_counter()
            self.w.warmup(self.spark, self.state, self.seed)
            warm = time.perf_counter() - t0
        self.samples["setup.warmup_s"] = [warm]
        return statistics.median(reps) + warm

    def operation(self, seed: int) -> float | None:
        """One checked operation; returns its wall time, or None if it
        raised. Checks run outside the timed region."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            parts, result = self.w.op(self.spark, self.state, seed)
        except Exception:  # a failed operation is counted, not fatal
            self.fail(traceback.format_exc())
            return None
        op_s = time.perf_counter() - t0
        for k, v in parts.items():
            self.samples.setdefault(k, []).append(v)
        self.results.append(result)
        problems = self.w.check(self.spark, self.state, result)
        if problems:
            self.fail("; ".join(problems))
        return op_s

    def check_run(self) -> None:
        """The checks that need every operation's result; counted as one
        more attempted operation."""
        self.attempted += 1
        problems = self.w.check_run(self.results) if self.results else ["no results"]
        if problems:
            self.fail("; ".join(problems))

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.failures.append(msg)
        print(f"FAILED operation {self.attempted}: {msg}", file=sys.stderr)

    def measure(self, seconds: float) -> list[float]:
        times = []
        t0 = time.perf_counter()
        while self.attempted < MIN_OPS or time.perf_counter() - t0 < seconds:
            with self.tracer.span("op", n=self.attempted):
                op_s = self.operation(self.seed * OP_SEED_STRIDE + self.attempted)
            if op_s is not None:
                times.append(op_s)
        self.check_run()
        return times

    def layers(self, cores: int) -> dict:
        """Every per-layer metric, on the workload's dataset and pair."""
        from perfbench import layers, replay, workloads
        from repro.harness import datasets

        w, tr, spark = self.w, self.tracer, self.spark
        name, n_sims = w.dataset, w.n_sims
        table_seed = self.seed + w.table_no  # as reproduce_nrmse_table seeds
        g, pair = datasets.load(name), datasets.target_pairs(name)[w.pair_idx]
        m = {"gen.load_s": statistics.median(self.samples["gen.load_s"])}
        ctx, ctx_m = layers.context(tr, g, pair, datasets.SPECS[name].burnin)
        m.update(ctx_m)
        m.update(layers.broadcast(tr, spark, ctx, cores))
        task_list = replay.tasks(ctx["n_nodes"], n_sims)
        kernel_m, serial_rows = layers.kernels(tr, ctx, task_list, table_seed)
        m.update(kernel_m)
        m.update(layers.estimators(tr, ctx, datasets.load_csr(name), task_list, table_seed))
        m.update(layers.harness(tr, spark, ctx, n_sims, table_seed))
        m["harness.parallel_eff"] = m["serial_s"] / (m["harness.simulate_s"] * cores)
        self.attempted += 1
        if m["harness.rows"] != serial_rows:
            self.fail(f"simulate_all emitted {m['harness.rows']} rows, "
                      f"the serial replay {serial_rows}")
        # The Catalyst layers run on the ground-truth workload's graph in
        # every traced run: no NRMSE workload uses them, and on Orkut they
        # would add half a minute.
        truth = workloads.TRUTH[0]
        m.update(layers.catalyst(tr, spark, datasets.load(truth.dataset),
                                 datasets.target_pairs(truth.dataset)[truth.pair_idx]))
        return m


def untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics, with the Python processes' memory sampled."""
    from perfbench.trace import PeakRss

    with PeakRss() as rss:
        setup_s = run.setup()
        op_times = run.measure(seconds)
    run.samples["op_s"] = op_times
    return {"op_s": statistics.median(op_times), "setup_s": setup_s,
            "py_peak_rss_mb": rss.python_peak / 1e6}


def traced(run: Run, tracer) -> dict:
    """Per-layer metrics: the operation plain, with layer spans, and
    plain again (operations still speed up as a run warms, so the spans'
    overhead is taken against the mean of the two plain ones), then
    every probe. All three use ``--seed``, so they do the same work;
    each is checked, but identical results are not pooled."""
    from perfbench import env, layers
    from perfbench.trace import PeakRss

    with PeakRss() as rss:
        run.setup()
        with tracer.span("op.plain"):
            before = run.operation(run.seed)
    with layers.instrument(tracer), tracer.span("op.traced"):
        traced_s = run.operation(run.seed)
    with tracer.span("op.plain"):
        after = run.operation(run.seed)
    run.samples["op_s"] = [before, traced_s, after]
    metrics = run.layers(env.cores())
    metrics["peak_rss_mb"] = rss.peak / 1e6
    if None not in run.samples["op_s"]:
        metrics["trace.overhead_s"] = traced_s - (before + after) / 2
    return metrics


def metric_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no program to benchmark under {ROOT}: src/repro and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import env

    env.pin(ROOT)
    from perfbench import workloads
    from perfbench.trace import Tracer

    args = parse_args(list(workloads.WORKLOADS))
    units = metric_spec()[args.trace]
    w = workloads.WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    run = Run(w, args.seed, tracer)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env.record(ROOT)}
    t_start = time.perf_counter()
    try:
        metrics = traced(run, tracer) if args.trace else untraced(run, args.seconds)
    finally:
        env.shutdown(run.spark)
        env.cleanup()
    wall = time.perf_counter() - t_start
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    for name, vals in sorted(run.samples.items()):
        vals = [v for v in vals if v is not None]
        print(f"{name}: median {statistics.median(vals):.4f} s over {len(vals)} "
              f"(min {min(vals):.4f}, max {max(vals):.4f})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"operations: attempted {run.attempted}, failed {run.failed}; wall {wall:.1f} s")
    print("env: " + json.dumps(record["env"]))
    out = ROOT / ".perfbench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.update(metrics=metrics, samples=run.samples, failures=run.failures,
                  attempted=run.attempted, failed=run.failed)
    tracer.write(out, record)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
