"""The three workloads: synthetic inputs made from the workload seed, the
CLI calls of one iteration, and the checks on what those calls write.

protocol-linear  `vidmem experiment` with linear models and a 3-model
                 ensemble: SRCC ranking and the simplex grid search
                 dominate; SVR, GRU and decay do not run.
protocol-models  `vidmem experiment` with RBF SVRs, a caption GRU and two
                 worker threads: solver hot loops and the thread pool
                 dominate; SRCC is a small share.
labels           `vidmem adjust-labels` on 75k annotation lines, then
                 `vidmem evaluate` against the true m*: the narrow CSV read
                 path plus the decay fit, and one large-n SRCC call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from common import import_vidmem

vidmem = import_vidmem()
from vidmem import cli, harness  # noqa: E402
from vidmem import corpus as corpus_mod  # noqa: E402
from vidmem.corpus import LabelTable  # noqa: E402

NAMES = ("protocol-linear", "protocol-models", "labels")

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps
# every code path of the workload and is what the self-test runs.  Full
# sizes keep one iteration under a second (0.3-0.8 s on a 2-vCPU Xeon), so
# that the calibration passes just before and after it see the host in the
# same state as the iteration did (calibrate.py); the layers' shares of the
# time match those of 4-7x larger inputs.
SCALES = {
    "full": {
        "protocol-linear": dict(n_videos=300, n_test=75, rows=3, dim=32,
                                noise=0.02, seeds=2),
        "protocol-models": dict(n_videos=150, rows=1, dim=2, noise=0.0, caption_every=4,
                                seeds=2, gru_hidden=16, gru_epochs=2),
        "labels": dict(n_videos=2500, obs=30),
    },
    "tiny": {
        "protocol-linear": dict(n_videos=120, n_test=30, rows=2, dim=6,
                                noise=0.1, seeds=2),
        "protocol-models": dict(n_videos=40, rows=1, dim=2, noise=0.0, caption_every=1,
                                seeds=2, gru_hidden=8, gru_epochs=1),
        "labels": dict(n_videos=200, obs=10),
    },
}

WORKERS = {"protocol-linear": 1, "protocol-models": 2, "labels": 1}
BUCKET = 0.05
WORD_DIM = 16
# SRCC values of the GRU workload may drift by float summation order once
# the GRU is batched; half the float64 digits is the tolerance.
SRCC_TOL = float(np.finfo(np.float64).eps) ** 0.5
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# `vidmem adjust-labels` defaults, which the labels oracle reproduces
TARGET_DURATION, DECAY_ITERATIONS = 75.0, 10


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _model_configs(name, size):
    """(feature_models, ensemble_models) entries of the experiment config."""
    if name == "protocol-linear":
        ridge = {"feature": "featA", "model": "ridge", "hyper": {"lam": 1.0}}
        # The library default lam = 0.1 zeroes every weight on labels that
        # vary by about +-0.05, which would time an error path.
        lasso = {"feature": "featA", "model": "lasso", "hyper": {"lam": 0.0005}}
        noise = {"feature": "featB", "model": "ridge", "hyper": {"lam": 1.0}}
        return ([{"feature": "featA", "model": "ols"}, ridge, lasso,
                 {"feature": "featA", "model": "bayes"}, noise],
                [ridge, lasso, noise])
    svr = {"kernel": "rbf", "epsilon": 0.01}
    gru = {"feature": "captions", "model": "gru",
           "hyper": {"hidden_units": size["gru_hidden"], "max_epochs": size["gru_epochs"]}}
    svr_a = {"feature": "featA", "model": "svr", "hyper": svr}
    return ([svr_a, {"feature": "featB", "model": "svr", "hyper": svr}, gru],
            [svr_a, gru])


def _write_word_vectors(captions, seed, path):
    """Vectors for every caption token, drawn from the workload seed."""
    vocab = sorted({tok for caps in captions.captions.values()
                    for cap in caps for tok in cap.lower().split()})
    rng = np.random.default_rng((seed, 7))
    with open(path, "w") as fh:
        for tok in vocab:
            vec = rng.normal(scale=0.5, size=WORD_DIM)
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def _subset(table, term, ids):
    return LabelTable(term, {v: table.scores[v] for v in ids})


def setup(name, work: Path, seed: int, scale: str = "full") -> dict:
    """Write the workload's inputs under `work`; return the run plan."""
    size = SCALES[scale][name]
    work.mkdir(parents=True, exist_ok=True)
    if name == "labels":
        spec = harness.SyntheticCorpusSpec(n_videos=size["n_videos"],
                                           obs_per_video=size["obs"],
                                           feature_dim=1, seed=seed)
        synth = harness.generate_synthetic(spec)
        corpus_mod.write_annotations_csv(synth.corpus.annotations["short"],
                                         work / "annotations.csv")
        corpus_mod.write_labels_csv(LabelTable("short", synth.true_m), work / "truth.csv")
        adjusted = str(work / "adjusted.csv")
        return {"workload": name, "dir": str(work), "seed": seed, "scale": scale,
                "calls": [["adjust-labels", "--annotations", str(work / "annotations.csv"),
                           "--out", adjusted],
                          ["evaluate", "--pred", adjusted, "--truth", str(work / "truth.csv")]],
                "outputs": ["adjusted.csv", "adjusted.csv.meta.json"]}

    n_test = size.get("n_test", 0)
    spec = harness.SyntheticCorpusSpec(n_videos=size["n_videos"] + n_test, obs_per_video=1,
                                       feature_dim=size["dim"], rows_per_video=size["rows"],
                                       noise=size["noise"], seed=seed)
    synth = harness.generate_synthetic(spec)
    c = synth.corpus
    ids = sorted(c.labels["short"].scores)
    train_ids, test_ids = ids[:size["n_videos"]], ids[size["n_videos"]:]
    for fname, fs in c.features.items():
        corpus_mod.write_feature_csv(fs, work / f"{fname}.csv")
    data = {"features": [{"name": fname, "path": f"{fname}.csv", "modality": fs.modality}
                         for fname, fs in c.features.items()],
            "labels": {}}
    for term in ("short", "long"):
        corpus_mod.write_labels_csv(_subset(c.labels[term], term, train_ids),
                                    work / f"labels_{term}.csv")
        data["labels"][term] = f"labels_{term}.csv"
    cfg = {"data": data, "seeds": list(range(size["seeds"])), "bucket": BUCKET,
           "workers": WORKERS[name], "output_dir": "out"}
    feature_models, ensemble_models = _model_configs(name, size)
    if name == "protocol-linear":
        test = {}
        for term in ("short", "long"):
            corpus_mod.write_labels_csv(_subset(c.labels[term], term, test_ids),
                                        work / f"test_{term}.csv")
            test[term] = f"test_{term}.csv"
        cfg["test_labels"] = test
    else:
        # one caption for every `caption_every`-th video keeps the GRU near
        # the SVRs' share of the time; uncaptioned videos take the fallback
        captions = corpus_mod.CaptionSet({
            v: caps[:1] for k, (v, caps) in enumerate(c.captions.captions.items())
            if k % size["caption_every"] == 0})
        corpus_mod.write_captions_csv(captions, work / "captions.csv")
        _write_word_vectors(captions, seed, work / "vectors.txt")
        data["captions"] = "captions.csv"
        data["word_vectors"] = "vectors.txt"
    cfg["feature_models"] = feature_models
    cfg["ensemble_models"] = ensemble_models
    (work / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return {"workload": name, "dir": str(work), "seed": seed, "scale": scale,
            "calls": [["experiment", "--config", str(work / "config.json")]],
            "outputs": ["out/report.json", "out/report.txt"],
            "n_features": len(feature_models),
            "n_ensemble_jobs": size["seeds"] * 2,
            "ensemble_names": [f"{e['feature']}:{cli.LINEAR_ALIASES.get(e['model'], e['model'])}"
                               for e in ensemble_models],
            "test_labels": name == "protocol-linear"}


def input_digest(work: Path) -> str:
    """One digest over every input file, to show a seed repeats its inputs."""
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(path.relative_to(work).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# outputs and checks
# ---------------------------------------------------------------------------

def clear_outputs(plan):
    for rel in plan["outputs"]:
        (Path(plan["dir"]) / rel).unlink(missing_ok=True)


def collect(plan, stdouts) -> dict:
    """Digests of the iteration's output files plus what the checks read."""
    work = Path(plan["dir"])
    out = {"digests": {}}
    for rel in plan["outputs"]:
        path = work / rel
        out["digests"][rel] = (hashlib.sha256(path.read_bytes()).hexdigest()
                               if path.is_file() else None)
    if plan["workload"] == "labels":
        lines = stdouts[1].strip().splitlines() if len(stdouts) > 1 else []
        out["evaluate"] = lines[-1] if lines else None
    else:
        path = work / "out" / "report.json"
        out["report"] = json.loads(path.read_text()) if path.is_file() else None
    return out


def fingerprint(plan, out) -> str:
    """What must repeat exactly between iterations and traced/untraced runs."""
    doc = {"digests": out["digests"], "evaluate": out.get("evaluate")}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _on_grid(weights):
    B = round(1.0 / BUCKET)
    return (all(abs(w * B - round(w * B)) < 1e-9 and w >= 0.0 for w in weights)
            and abs(sum(weights) - 1.0) < 1e-9)


def check_protocol(plan, report) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for the rows of one experiment report.

    Each feature row and each ensemble job is one operation; a row with an
    error, or a job missing from the report because it raised, fails."""
    n_feat, n_jobs = plan["n_features"], plan["n_ensemble_jobs"]
    attempted = n_feat + n_jobs
    if report is None:
        return attempted, attempted, ["no report.json written"]
    failed, reasons = 0, []
    rows = report["features"]["rows"]
    for row in rows:
        if row["error"]:
            failed += 1
            reasons.append(f"feature row {row['feature']}:{row['model']}: {row['error']}")
            continue
        for term, stats in row["terms"].items():
            vals = stats["per_seed"]
            if not all(-1.0 <= v <= 1.0 for v in vals) or \
                    abs(stats["mean"] - float(np.mean(vals))) > 1e-12:
                failed += 1
                reasons.append(f"feature row {row['feature']}:{row['model']} {term}: bad SRCC stats")
                break
    failed += max(0, n_feat - len(rows))
    ens = report["ensemble"]["rows"]
    failed += max(0, n_jobs - len(ens))
    for row in ens:
        bad = []
        if row["model_names"] != plan["ensemble_names"]:
            bad.append("model names")
        if not _on_grid(row["weights"]):
            bad.append("weights off the simplex grid")
        if not -1.0 <= row["validation_srcc"] <= 1.0:
            bad.append("validation SRCC out of range")
        if (row["test_srcc"] is None) == plan["test_labels"]:
            bad.append("test SRCC presence")
        if bad:
            failed += 1
            reasons.append(f"ensemble seed {row['seed']} {row['term']}: {', '.join(bad)}")
    return attempted, failed, reasons


def quality(plan, out) -> float | None:
    """The SRCC a user reads off the workload's output: the mean ensemble
    validation SRCC for the protocols, the `evaluate` SRCC for labels."""
    if plan["workload"] == "labels":
        try:
            return float(out["evaluate"])
        except (TypeError, ValueError):
            return None
    report = out.get("report")
    if not report or not report["ensemble"]["rows"]:
        return None
    return float(np.mean([r["validation_srcc"] for r in report["ensemble"]["rows"]]))


def reference_record(plan, out) -> dict:
    """The part of an iteration's output that the reference pins down."""
    if plan["workload"] == "protocol-models":
        report = out["report"]
        return {"weights": [r["weights"] for r in report["ensemble"]["rows"]],
                "srcc": _srcc_values(report)}
    rec = dict(out["digests"])
    if plan["workload"] == "labels":
        rec["evaluate"] = out["evaluate"]
    return rec


def _srcc_values(report):
    vals = []
    for row in report["features"]["rows"]:
        for term in sorted(row["terms"]):
            vals.extend(row["terms"][term]["per_seed"])
    for row in report["ensemble"]["rows"]:
        vals.append(row["validation_srcc"])
        if row["test_srcc"] is not None:
            vals.append(row["test_srcc"])
    return vals


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def compare_reference(plan, out, reference) -> tuple[bool, str]:
    """(matches, reason).  Seeds without a recorded reference report True
    with reason "unrecorded"; the run then relies on the other checks."""
    if plan["scale"] != "full":
        return True, "unrecorded"
    want = reference.get(plan["workload"], {}).get(str(plan["seed"]))
    if want is None:
        return True, "unrecorded"
    if out.get("report") is None and plan["workload"] != "labels":
        return False, "no report to compare"
    got = reference_record(plan, out)
    if plan["workload"] != "protocol-models":
        diff = sorted(k for k in want if want[k] != got.get(k))
        return not diff, ("match" if not diff else f"differs from reference: {diff}")
    if got["weights"] != want["weights"]:
        return False, "chosen ensemble weights differ from reference"
    if len(got["srcc"]) != len(want["srcc"]) or any(
            abs(a - b) > SRCC_TOL for a, b in zip(got["srcc"], want["srcc"])):
        return False, f"SRCC values differ from reference by more than {SRCC_TOL:.3g}"
    return True, "match"


# ---------------------------------------------------------------------------
# independent oracle for the labels workload
# ---------------------------------------------------------------------------

def _read_pairs(path, cast):
    keys, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            keys.append(row[0])
            vals.append(cast(row))
    return keys, vals


def _ranks(x):
    """Average-tie ranks via a sort and run boundaries."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(xs)]
    avg = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def oracle_srcc(a, b):
    ra, rb = _ranks(np.asarray(a, float)), _ranks(np.asarray(b, float))
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb) / math.sqrt(float(ra @ ra) * float(rb @ rb))


def check_labels(plan, out) -> tuple[list[str], float | None]:
    """Recompute the decay fit and the SRCC from the inputs alone and
    compare them with the CLI's outputs; returns (reasons, decay_mae)."""
    work = Path(plan["dir"])
    if not all((work / rel).is_file() for rel in plan["outputs"]):
        return ["no adjusted labels written"], None
    vids, obs = _read_pairs(work / "annotations.csv", lambda r: (float(r[1]), int(r[2])))
    delays = np.array([o[0] for o in obs])
    hits = np.array([o[1] for o in obs], dtype=float)
    uniq, idx = np.unique(np.array(vids), return_inverse=True)
    counts = np.bincount(idx)
    lr = np.log(delays / TARGET_DURATION)
    hit_rate = np.bincount(idx, hits) / counts
    mean_lr = np.bincount(idx, lr) / counts
    mean_xlr = np.bincount(idx, hits * lr) / counts
    denom = (np.bincount(idx, lr * lr) / counts).sum()
    m = hit_rate.copy()
    trajectory = []
    for _ in range(DECAY_ITERATIONS):
        alpha = (mean_xlr.sum() - m @ mean_lr) / denom
        m = hit_rate - alpha * mean_lr
        trajectory.append(alpha)
    expected = dict(zip(uniq.tolist(), np.clip(m, 0.0, 1.0).tolist()))

    adj_ids, adj = _read_pairs(work / "adjusted.csv", lambda r: float(r[1]))
    truth_ids, truth = _read_pairs(work / "truth.csv", lambda r: float(r[1]))
    reasons = []
    meta = json.loads((work / "adjusted.csv.meta.json").read_text())
    if meta["iterations_run"] != DECAY_ITERATIONS or not np.allclose(
            meta["alpha_trajectory"], trajectory, rtol=1e-9, atol=0.0):
        reasons.append("decay alpha trajectory differs from the independent fit")
    got = dict(zip(adj_ids, adj))
    if set(got) != set(expected):
        reasons.append("adjusted labels cover other videos than the annotations")
    elif max(abs(got[v] - expected[v]) for v in expected) > 1e-9:
        reasons.append("adjusted labels differ from the independent decay fit")
    true_m = dict(zip(truth_ids, truth))
    common = sorted(set(got) & set(true_m))
    mae = float(np.mean([abs(got[v] - true_m[v]) for v in common])) if common else None
    if common:
        want = oracle_srcc([got[v] for v in common], [true_m[v] for v in common])
        try:
            printed = float(out["evaluate"])
        except (TypeError, ValueError):
            printed = None
        if printed is None or abs(printed - want) > 5e-7:
            reasons.append(f"evaluate printed {out['evaluate']!r}, independent SRCC {want:.6f}")
    return reasons, mae
