"""vidmem benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: protocol-linear,
protocol-models, labels (see workloads.py).  The runner

1. builds the workload's inputs from the seed several times, timing each
   build (`setup_s` is their median) and checking that they are identical;
2. starts a child process that repeats the workload's CLI calls through
   `vidmem.cli.main` for S seconds and checks every output (measure.py);
3. prints an environment and detail record, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

`setup_s`, and `wall_s` and `cpu_s` of the single-worker workloads, are
corrected for the host's speed at the time: a fixed calibration task runs
on the same CPU between iterations (and between set-up builds), and each
time is taken relative to the calibration passes around it, then scaled
back to seconds (calibrate.py).  On a shared host the raw times of one
program drift by up to ~1.7x over minutes; over sets of 5-10 runs on a
2-vCPU Xeon VM the corrected medians spread 1-4% (quartile distance over
median) where the raw ones spread 9-17%.  `protocol-models` runs two
worker threads across both CPUs; neither a one-CPU nor a two-thread
calibration pass tracked its times (its corrected medians spread as much
as its raw ones, 8-13%), so its `wall_s` and `cpu_s` are raw medians.
Raw and calibration times are in the detail record.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
child alternates untraced and traced iterations and the metrics are the
per-layer ones (tracing.py).  The detail record, and for traced runs the
spans of the last traced iteration, are written to `.perfbench_out/`.  Other entry points: selftest.py, record_reference.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, allowed_cpus, env_record, import_vidmem, nproc, pin_threads, pinned

# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S
# seconds are spent, so that a fast set-up still gives a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 25, 2.0
CHILD_TIMEOUT_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "ok_ratio": "ratio", "output_srcc": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("protocol-linear", "protocol-models", "labels"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setups(workloads, name, work, seed, trace):
    """Build the inputs repeatedly, with a calibration pass before the
    first build and after each; returns (plan, build times, calibration
    times, digests, per-layer metrics of each traced build)."""
    import calibrate
    import tracing
    times, digests, layers = [], [], []
    plan = None
    cal = calibrate.Calibration()
    with pinned({allowed_cpus()[-1]}):
        cal.run()  # warm-up
        cal_times = [cal.run()[0]]
        while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
            if work.exists():
                shutil.rmtree(work)
            tracer = tracing.Tracer() if trace else None
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                plan = workloads.setup(name, work, seed)
                times.append(time.perf_counter() - t0)
            cal_times.append(cal.run()[0])
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracer.spans))
            digests.append(workloads.input_digest(work))
    return plan, times, cal_times, digests, layers


def run_child(plan, work, seconds, trace, spans_path, timeout):
    plan_path, result_path = work.parent / "plan.json", work.parent / "result.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(Path(__file__).with_name("measure.py")),
           str(plan_path), repr(seconds), str(trace), str(result_path), str(spans_path)]
    # the child's stdout joins our stderr so our last stdout line stays the result
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement process exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    pinned_env = pin_threads()
    try:
        import_vidmem()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"perfbench: cannot import vidmem: {exc}", file=sys.stderr)
        return 2
    import calibrate
    import measure
    import workloads

    workers = workloads.WORKERS[args.workload]
    env = env_record(workers)
    env["pinned_env"] = pinned_env
    if workers > nproc():
        print(f"perfbench: {workers} workers exceed nproc={nproc()}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"work-{os.getpid()}"
    work = run_dir / "inputs"
    try:
        plan, setup_times, setup_cal, digests, setup_layers = timed_setups(
            workloads, args.workload, work, args.seed, args.trace)
        timeout = CHILD_TIMEOUT_S - (time.perf_counter() - t_start)
        res = run_child(plan, work, args.seconds, args.trace, OUT / f"{stem}.spans.json",
                        timeout)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed, attempted = res["failed"], res["attempted"]
    reasons = list(res["reasons"])
    attempted += 1
    if len(set(digests)) != 1:
        failed += 1
        reasons.append("the same seed built different inputs")

    if args.trace:
        import tracing
        values = measure.median_layers(res["layers"])
        setup_values = measure.median_layers(setup_layers)
        for key in ("corpus.write_s", "corpus.write_lines", "harness.generate_synthetic_s"):
            values[key] = setup_values[key]
        values["trace.overhead_s"] = (statistics.median(res["traced_wall_s"])
                                      - statistics.median(res["wall_s"]))
        units = tracing.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(res["wall_corrected_s"] or res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_corrected_s"] or res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(
                calibrate.corrected(setup_times, range(len(setup_times)), setup_cal)),
            "ok_ratio": (attempted - failed) / attempted,
            "output_srcc": res["output_srcc"] or 0.0,
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "iterations": res["iterations"],
              "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
              "cal_wall_s": res["cal_wall_s"], "cal_cpu_s": res["cal_cpu_s"],
              "traced_wall_s": res["traced_wall_s"], "setup_s": setup_times,
              "setup_cal_s": setup_cal,
              "decay_mae": res.get("decay_mae"), "reference": res["reference"],
              "reasons": reasons}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
