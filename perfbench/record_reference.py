"""Record the outputs that later runs are compared against.

    python3 perfbench/record_reference.py [--workload NAME] [--seeds 0-63]

For each workload and seed this builds the full-scale inputs, runs the
workload's CLI calls once, checks them, and stores in reference.json
what the comparison reads: file digests (protocol-linear, labels, plus
the `evaluate` output), or chosen weights and SRCC values
(protocol-models).  Existing entries for other seeds are kept.  Run it
only on code whose outputs are known good; a seed whose run fails a
check is not recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import OUT, pin_threads

pin_threads()

import measure  # noqa: E402
import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description="record benchmark reference outputs")
    p.add_argument("--workload", choices=workloads.NAMES, action="append")
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    args = p.parse_args(argv)

    reference = workloads.load_reference()
    work = OUT / "reference-work"
    status = 0
    for name in args.workload or workloads.NAMES:
        table = reference.setdefault(name, {})
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            plan = workloads.setup(name, work, seed)
            res = measure.measure(plan, seconds=0.0, trace=0, reference={})
            if res["failed"]:
                print(f"{name} seed {seed}: not recorded: {res['reasons']}", file=sys.stderr)
                status = 1
                continue
            table[str(seed)] = res["record"]
            print(f"{name} seed {seed}: recorded", flush=True)
            workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
