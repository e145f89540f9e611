"""DDS benchmark: one workload, one seed, timed solves with every answer checked.

    python3 perfbench/run.py --workload exact-hubs --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced solves and reports the per-layer
metrics, writing the spans to ``.perfbench_work/``. The last line of
standard output is one JSON object; the exit code is 0 only when every
solve passed its checks. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shlex
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

SPARK_MASTER = "local[1]"
SPARK_PARTITIONS = 1
SPARK_DRIVER_MEMORY = "1g"
WORK_DIR = ".perfbench_work"


class SparkRuntime:
    """A pinned local SparkSession whose JVM is stopped and waited for on exit."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp

    def __enter__(self) -> "SparkRuntime":
        tmp = str(self.tmp)
        # keep spark-submit's launcher JVM from writing /tmp/hsperfdata_*
        os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
        # read when the JVM launches, so it is set before the session exists
        os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
            [
                "--master", SPARK_MASTER,
                "--driver-memory", SPARK_DRIVER_MEMORY,
                "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
                "--conf", "spark.driver.host=127.0.0.1",
                "--conf", "spark.ui.enabled=false",
                "--conf", "spark.ui.showConsoleProgress=false",
                "--conf", f"spark.local.dir={tmp}",
                "pyspark-shell",
            ]
        )
        from pyspark.sql import SparkSession

        self.session = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", SPARK_PARTITIONS)
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.sql.warehouse.dir", f"{tmp}/warehouse")
            .getOrCreate()
        )
        self.session.sparkContext.setLogLevel("ERROR")
        self.jvm_pid = self.session._jvm.java.lang.ProcessHandle.current().pid()
        return self

    def jvm_peak_rss_kb(self) -> int:
        with open(f"/proc/{self.jvm_pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for the Spark JVM")

    def __exit__(self, *exc) -> None:
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.session.stop()
        if gateway is None:
            return
        proc = gateway.proc
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # print setup_s and stop; used to time more cold set-ups in child processes
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_in_child(workload: str, seed: int) -> float:
    """The setup_s of one more cold set-up, made in a fresh process."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return float(out.split()[-1])


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {src}/repro; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tmp = root / WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None

    from speed import REF_GAUGE_S, SpeedGauge

    # End-to-end times of the local workloads are rescaled to a reference
    # speed by the gauge. df-exact's work runs in the JVM's threads, which
    # the gauge does not sample, so it reports wall seconds; so does a
    # traced run, which leaves the gauge off.
    gauge = SpeedGauge()
    setup_mark = (t_start, 0)
    attempted = failed = 0

    with contextlib.ExitStack() as stack:
        if not args.trace:
            stack.enter_context(gauge)

        import numpy as np
        import pyspark

        from repro.graph.generators import to_spark

        import layers
        import workloads as wl
        from tracer import Tracer

        if args.workload not in wl.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
            return 2
        w = wl.WORKLOADS[args.workload]
        import_s = time.perf_counter() - t_start

        t = time.perf_counter()
        spark = stack.enter_context(SparkRuntime(tmp)) if w.spark else None
        spark_s = time.perf_counter() - t

        t = time.perf_counter()
        graph = inp = wl.make_graph(w, args.seed)
        if spark is not None:
            inp = to_spark(spark.session, graph).cache()
            inp.count()
        prepare_s = time.perf_counter() - t

        # (number, label, wall s, rescaled s, answers) of each solve that
        # returned; the answers are checked after the timed solves
        solves: list[tuple[int, str, float, float, dict]] = []

        def attempt(label: str, run) -> float | None:
            """One solve; returns its rescaled seconds, or None if it raised."""
            nonlocal attempted, failed
            attempted += 1
            gc.collect()
            mark = gauge.start()
            try:
                results = run()
            except Exception:
                traceback.print_exc()
                failed += 1
                print(f"solve {attempted} {label} raised", flush=True)
                return None
            wall, dt = gauge.stop(mark)
            dt = wall if w.spark else dt
            solves.append((attempted, label, wall, dt, results))
            return dt

        def plain():
            return wl.solve(w, inp)

        tracer = Tracer(layers.PROBES)

        def traced_solve():
            with tracer, tracer.root("solve") as span:
                results = wl.solve(w, inp)
                span.counts.update(layers.result_counts(results))
            return results

        t = time.perf_counter()
        for _ in range(w.warmups):
            attempt("warmup", plain)
        warmup_s = time.perf_counter() - t
        # everything from the start of main() to the first timed solve
        setup_wall, setup_s = gauge.stop(setup_mark)
        setup_s = setup_wall if w.spark else setup_s
        if args.setup_only:
            print(repr(setup_s))
            return 0

        print(
            f"# workload={w.name} seed={args.seed} n={w.n} m={graph.m} "
            f"sources={graph.n_src} targets={graph.n_dst}\n"
            f"# nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} pyspark={pyspark.__version__} "
            + (f"master={SPARK_MASTER} shuffle.partitions={SPARK_PARTITIONS} " if spark else "")
            + f"warmups={w.warmups} seconds={args.seconds:g} trace={args.trace}\n"
            f"# setup {setup_s:.3f} s, {setup_wall:.3f} s wall: "
            f"import {import_s:.3f} s, spark {spark_s:.3f} s, "
            f"prepare {prepare_s:.3f} s, warm-up {warmup_s:.3f} s",
            flush=True,
        )

        # timed solves; with --trace 1, untraced and traced solves alternate
        timed: list[float] = []
        traced: list[float] = []
        n_timed = n_traced = 0
        t0 = time.perf_counter()
        while not (
            time.perf_counter() - t0 >= args.seconds and n_timed and (n_traced or not args.trace)
        ):
            if args.trace and n_traced < n_timed:
                n_traced += 1
                dt = attempt("traced", traced_solve)
                traced += [] if dt is None else [dt]
            else:
                n_timed += 1
                dt = attempt("timed", plain)
                timed += [] if dt is None else [dt]

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if spark is not None:
            rss_kb += spark.jvm_peak_rss_kb()

        # the reference answers are made after the timed solves, so that
        # set-up holds only what the solves need
        t = time.perf_counter()
        ref = wl.reference(w, graph)
        print(f"# reference answers {time.perf_counter() - t:.3f} s", flush=True)
        for i, label, wall, dt, results in solves:
            bad = wl.check(w, ref, results)
            failed += bool(bad)
            answers = " ".join(f"{k}.rho2={r.rho2}" for k, r in results.items())
            verdict = "FAILED: " + "; ".join(bad) if bad else "ok"
            print(f"solve {i} {label} {dt:.4f} s, {wall:.4f} s wall {answers} {verdict}")
        if gauge.samples and not w.spark:
            print(f"# speed gauge: {len(gauge.samples)} samples, median "
                  f"{1e6 * median(gauge.samples):.1f} us, reference {1e6 * REF_GAUGE_S:.1f} us")

    metrics: dict[str, dict] = {}
    if args.trace and traced and timed:
        out = root / WORK_DIR / f"trace-{w.name}-seed{args.seed}.jsonl"
        tracer.dump(str(out))
        summary = layers.summarize(tracer.spans, timed)
        solve_med = median(traced)
        for k, v in sorted(summary.items(), key=lambda kv: -kv[1]):
            if k.endswith(".self_s"):
                print(f"# self time {k[:-7]:<16} {v:9.4f} s "
                      f"{100 * v / solve_med:5.1f}% of a traced solve")
        print(f"# spans written to {out.relative_to(root)}")
        metrics = {k: {"value": summary[k], "unit": u} for k, u in layers.METRICS.items()}
    elif not args.trace and timed:
        setups = [setup_s] + [
            _setup_in_child(w.name, args.seed) for _ in range(w.setup_samples - 1)
        ]
        print(f"# setup_s {', '.join(f'{x:.3f}' for x in setups)} s, median taken")
        metrics = {
            "solve_s": {"value": median(timed), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        # the highest percentile with at least ten samples beyond it
        k = len(timed) - 10
        tail = (f"p{100 * k / len(timed):.0f} {sorted(timed)[k - 1]:.4f} s"
                if k > len(timed) / 2 else "no percentile above the median has ten beyond it")
        print(f"# solve_s median {median(timed):.4f} s, n={len(timed)}, "
              f"max {max(timed):.4f} s; {tail}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"fail_rate {failed / attempted:.6g} ratio ({failed} of {attempted} solves)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
