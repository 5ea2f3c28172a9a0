"""Measurement phase: repeat the workload's CLI calls in this process for a
fixed time, time each iteration, and check every iteration's outputs.

Run as a child of run.py (so that its peak RSS covers only this phase):

    python3 perfbench/measure.py PLAN.json SECONDS TRACE RESULT.json SPANS.json

With TRACE 1 it writes the spans of the last traced iteration to SPANS.json.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads
from calibrate import Calibration
from common import allowed_cpus, pinned
from tracing import COUNTS, Tracer, layer_metrics


def run_calls(plan, trace):
    """One iteration: every CLI call of the plan, in order.

    Returns (wall_s, cpu_s, exit codes, captured stdouts, tracer or None).
    """
    workloads.clear_outputs(plan)
    gc.collect()
    tracer = Tracer() if trace else None
    codes, stdouts = [], []
    with tracer or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in plan["calls"]:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = tracing.cli.main(list(argv))
            except SystemExit as exc:  # argparse and a few commands exit
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed operation, not a lost run
                print(f"perfbench: {argv[0]} raised {exc!r}", file=sys.stderr)
                code = 1
            codes.append(code)
            stdouts.append(buf.getvalue())
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, codes, stdouts, tracer


class Checker:
    """Counts attempted and failed operations over a run's iterations."""

    def __init__(self, plan, reference):
        self.plan = plan
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.first_fingerprint = None
        self.reference_status = None
        self.last_output = None

    def fail(self, reason, n=1):
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def iteration(self, codes, stdouts):
        plan = self.plan
        self.attempted += len(codes)
        for argv, code in zip(plan["calls"], codes):
            if code != 0:
                self.fail(f"`vidmem {argv[0]}` exited with {code}")
        out = workloads.collect(plan, stdouts)
        self.last_output = out
        if plan["workload"] != "labels":
            attempted, failed, reasons = workloads.check_protocol(plan, out["report"])
            self.attempted += attempted
            if failed:
                self.fail("; ".join(reasons) or "report rows failed", failed)
        # one comparison per iteration: against the recorded reference and
        # against the run's first iteration
        self.attempted += 1
        fp = workloads.fingerprint(plan, out)
        ok, status = workloads.compare_reference(plan, out, self.reference)
        self.reference_status = status
        if self.first_fingerprint is None:
            self.first_fingerprint = fp
        if not ok:
            self.fail(status)
        elif fp != self.first_fingerprint:
            self.fail("output differs between iterations of one run")
        return fp

    def finish(self):
        """Checks made once per run; returns the run's quality figures."""
        plan, out = self.plan, self.last_output
        extra = {}
        if plan["workload"] == "labels":
            self.attempted += 1
            reasons, mae = workloads.check_labels(plan, out)
            if reasons:
                self.fail("; ".join(reasons))
            extra["decay_mae"] = mae
        self.attempted += 1
        extra["output_srcc"] = workloads.quality(plan, out)
        if extra["output_srcc"] is None:
            self.fail("no SRCC in the output")
        return extra


def measure(plan, seconds, trace, reference=None, min_iterations=None):
    """Repeat the plan's calls for `seconds`; traced runs alternate an
    untraced and a traced iteration.

    A single-worker workload stays on one CPU for the run, and a
    calibration pass (calibrate.py) runs there before the first iteration
    and after each one; "wall_corrected_s" and "cpu_corrected_s" are the
    untraced iterations' times relative to the passes around them.  A
    workload with more workers spreads over the CPUs and hands the
    interpreter lock between its threads; its times did not follow a
    one-CPU pass (run.py), so it runs none and its corrected times are
    None."""
    reference = workloads.load_reference() if reference is None else reference
    checker = Checker(plan, reference)
    if min_iterations is None:
        min_iterations = 2 if trace else 1
    single = workloads.WORKERS[plan["workload"]] == 1
    cal = Calibration() if single else None
    walls, cpus, traced_walls, fingerprints = [], [], [], []
    cal_walls, cal_cpus, untraced = [], [], []
    layers, spans, counts_seen = [], [], None  # spans of the last traced iteration

    def calibrate_pass():
        if cal is None:
            return 0.0
        cal_wall, cal_cpu = cal.run()
        cal_walls.append(cal_wall)
        cal_cpus.append(cal_cpu)
        return cal_wall

    i = 0
    with pinned({allowed_cpus()[-1]} if single else set()):
        calibrate_pass()  # warm-up
        cal_walls.clear()
        cal_cpus.clear()
        start = time.perf_counter()
        calibrate_pass()
        while True:
            traced = bool(trace) and i % 2 == 1
            wall, cpu, codes, stdouts, tracer = run_calls(plan, traced)
            cal_wall = calibrate_pass()
            fingerprints.append(checker.iteration(codes, stdouts))
            if traced:
                traced_walls.append(wall)
                metrics = layer_metrics(tracer.spans, tracer.skipped_constant)
                counts = {k: metrics[k] for k in COUNTS if k in metrics}
                if counts_seen is None:
                    counts_seen = counts
                elif counts != counts_seen:
                    checker.fail("per-layer counts differ between traced iterations")
                layers.append(metrics)
                spans = tracer.spans
            else:
                walls.append(wall)
                cpus.append(cpu)
                untraced.append(i)
            i += 1
            elapsed = time.perf_counter() - start
            if i >= min_iterations and elapsed + wall + cal_wall > seconds:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_corr = calibrate.corrected(walls, untraced, cal_walls) if single else None
    cpu_corr = calibrate.corrected(cpus, untraced, cal_cpus) if single else None
    result = {
        "iterations": i,
        "wall_s": walls, "cpu_s": cpus, "traced_wall_s": traced_walls,
        "cal_wall_s": cal_walls, "cal_cpu_s": cal_cpus,
        "wall_corrected_s": wall_corr, "cpu_corrected_s": cpu_corr,
        "peak_rss_mb": peak_kb / 1024.0,
        "fingerprints": sorted(set(fingerprints)),
        "layers": layers,
        "spans": spans,
    }
    result.update(checker.finish())
    result.update(attempted=checker.attempted, failed=checker.failed,
                  reasons=checker.reasons, reference=checker.reference_status)
    if not checker.failed:
        result["record"] = workloads.reference_record(plan, checker.last_output)
    return result


def median_layers(layers):
    """Per-layer metrics over traced iterations: the median of each time or
    rate, and each count as it was (counts repeat exactly)."""
    return {k: layers[0][k] if k in COUNTS else statistics.median(m[k] for m in layers)
            for k in layers[0]}


def main(argv):
    plan_path, seconds, trace, result_path, spans_path = argv
    plan = json.loads(Path(plan_path).read_text())
    result = measure(plan, float(seconds), int(trace))
    if int(trace):
        Path(spans_path).write_text(json.dumps(result["spans"]))
    del result["spans"]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
