"""Self-test of the benchmark on a tiny scale of each workload.

    python3 perfbench/selftest.py

For every workload it builds the inputs and runs them twice (each run:
untraced, traced, untraced, traced iteration), then asserts that

* the same seed builds byte-identical inputs,
* no operation fails and every output check passes,
* traced and untraced iterations, and both runs, give one output digest,
* every per-layer count repeats exactly between the runs,
* each layer is busy on the workload that measures it and idle elsewhere,
* leaving the tracer restores every patched function,
* BENCHMARK.json names the metrics, units and workloads the runner uses.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

from common import OUT, ROOT, pin_threads

pin_threads()

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per workload: counts that must be positive, counts that must be zero
ACTIVE = {
    "protocol-linear": (
        ("metrics.srcc_calls", "ensemble.candidates", "regress.fit_linear_calls",
         "regress.lasso_sweeps", "aggregate.rows_in", "harness.train_calls", "corpus.load_lines"),
        ("regress.fit_svr_calls", "textmodel.gru_epochs", "decay.iterations")),
    "protocol-models": (
        ("regress.fit_svr_calls", "regress.svr_pair_updates", "textmodel.gru_epochs",
         "textmodel.embed_calls", "ensemble.candidates", "harness.train_calls"),
        ("regress.fit_linear_calls", "decay.iterations")),
    "labels": (
        ("decay.iterations", "corpus.load_lines", "metrics.srcc_calls"),
        ("harness.train_calls", "ensemble.candidates", "regress.fit_linear_calls",
         "regress.fit_svr_calls", "textmodel.gru_epochs")),
}


def run_once(name, work):
    plan = workloads.setup(name, work, seed=0, scale="tiny")
    digest = workloads.input_digest(work)
    res = measure.measure(plan, seconds=0.0, trace=1, reference={}, min_iterations=4)
    return digest, res


def check_workload(name):
    errors = []
    work = OUT / "selftest" / name
    runs = []
    for _ in range(2):
        shutil.rmtree(work, ignore_errors=True)
        runs.append(run_once(name, work))
    shutil.rmtree(work, ignore_errors=True)
    (d1, r1), (d2, r2) = runs
    if d1 != d2:
        errors.append("the same seed built different inputs")
    for r in (r1, r2):
        if r["failed"]:
            errors.append(f"{r['failed']} failed operations: {r['reasons']}")
        if len(r["fingerprints"]) != 1:
            errors.append("traced and untraced iterations wrote different outputs")
    if r1["fingerprints"] != r2["fingerprints"]:
        errors.append("the two runs wrote different outputs")
    counts = [{k: m[k] for k in tracing.COUNTS if k in m} for m in r1["layers"] + r2["layers"]]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("per-layer counts differ between runs")
    missing = set(tracing.PER_LAYER) - set(r1["layers"][0]) - {
        "trace.overhead_s", "corpus.write_s", "corpus.write_lines", "harness.generate_synthetic_s"}
    if missing:
        errors.append(f"per-layer metrics missing: {sorted(missing)}")
    busy, idle = ACTIVE[name]
    errors += [f"{k} is 0" for k in busy if not counts[0][k]]
    errors += [f"{k} is {counts[0][k]}, expected 0" for k in idle if counts[0][k]]
    return errors


def patched_leftovers():
    """Names in vidmem modules still bound to a tracing wrapper."""
    left = []
    for modname, mod in sorted(sys.modules.items()):
        if modname == "vidmem" or modname.startswith("vidmem."):
            left += [f"{modname}.{k}" for k, v in vars(mod).items()
                     if hasattr(v, "__wrapped_original__")]
    for _, cls, attr, _ in tracing.METHODS:
        if hasattr(vars(cls)[attr], "__wrapped_original__"):
            left.append(f"{cls.__name__}.{attr}")
    if tracing.harness.ThreadPoolExecutor.__name__ != "ThreadPoolExecutor":
        left.append("vidmem.harness.ThreadPoolExecutor")
    return left


def benchmark_json_errors():
    """BENCHMARK.json must list exactly the metrics and workloads the runner
    prints, with the same units."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, want in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        got = {m["name"]: m["unit"] for m in doc[key]}
        if got != want:
            errors.append(f"BENCHMARK.json {key} differs from the runner's metrics")
    if [w["name"] for w in doc["workloads"]] != list(workloads.NAMES):
        errors.append("BENCHMARK.json workloads differ from workloads.NAMES")
    return errors


def main():
    errors = benchmark_json_errors()
    ok = not errors
    for e in errors:
        print(e)
    for name in workloads.NAMES:
        errors = check_workload(name)
        leftovers = patched_leftovers()
        if leftovers:
            errors.append(f"tracer left patches behind: {leftovers}")
        ok &= not errors
        print(f"{name}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  {e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
