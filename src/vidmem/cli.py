"""Command-line surface: label adjustment, model training/prediction,
evaluation, ensemble weight search, full experiments, and synthetic data."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import corpus as corpus_mod
from . import regress
from .aggregate import PredictionTable
from .corpus import Corpus, load_labels_csv
from .decay import adjust_labels, fit_decay
from .ensemble import grid_search
from .harness import (MODEL_KINDS, FeatureModelConfig, SyntheticCorpusSpec,
                      generate_synthetic, predict_table, report_to_json,
                      report_to_text, run_full_experiment,
                      train_feature_model, write_prediction_csv)
from .metrics import srcc
from .textmodel import GruRegressor

LINEAR_ALIASES = {"bayes": "bayes_ridge"}


def cmd_adjust_labels(args):
    log = corpus_mod.load_annotations_csv(args.annotations)
    fit = fit_decay(log, args.target_duration, args.iterations)
    table = adjust_labels(fit, term=args.term)
    corpus_mod.write_labels_csv(table, args.out)
    sidecar = {"alpha": fit.alpha, "alpha_trajectory": list(fit.alpha_trajectory),
               "iterations_run": fit.iterations_run,
               "target_duration": fit.target_duration,
               "warnings": list(fit.warnings)}
    with open(str(args.out) + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"alpha={fit.alpha:.6f} videos={len(fit.m_t)} -> {args.out}")


def _corpus_for_model(args, model_kind):
    c = Corpus()
    if model_kind == "gru":
        if not args.captions or not args.word_vectors:
            raise SystemExit("gru model requires --captions and --word-vectors")
        c.captions = corpus_mod.load_captions_csv(args.captions)
        c.word_vectors = corpus_mod.load_word_vectors(args.word_vectors)
        feature_name = "captions"
    else:
        if not args.features:
            raise SystemExit(f"{model_kind} model requires --features")
        fs = corpus_mod.load_feature_csv(args.features, args.modality, "feature")
        c.features["feature"] = fs
        feature_name = "feature"
    return c, feature_name


def cmd_train(args):
    kind = LINEAR_ALIASES.get(args.model, args.model)
    hyper = json.loads(args.params) if args.params else {}
    labels = load_labels_csv(args.labels, args.term)
    c, feature_name = _corpus_for_model(args, kind)
    config = FeatureModelConfig(feature=feature_name, model=kind, hyper=hyper)
    ids = list(labels.scores)
    model = train_feature_model(c, config, labels, ids, seed=args.seed)
    regress.save_model(model, args.out)
    print(f"trained {kind} on {len(ids)} videos -> {args.out}")


def cmd_predict(args):
    model = regress.load_model(args.model)
    kind = "gru" if isinstance(model, GruRegressor) else "other"
    c, feature_name = _corpus_for_model(args, kind)
    if args.ids:
        ids = [line.strip() for line in Path(args.ids).read_text().splitlines() if line.strip()]
    elif kind == "gru":
        ids = list(c.captions.captions)
    else:
        ids = list(c.features[feature_name].rows)
    config = FeatureModelConfig(feature=feature_name, model=kind if kind == "gru" else "predict")
    table = predict_table(c, config, model, ids, aggregation=args.aggregate)
    write_prediction_csv(table, args.out)
    print(f"wrote {len(ids)} predictions -> {args.out}")


def cmd_evaluate(args):
    pred = corpus_mod.load_prediction_csv(args.pred)
    truth = corpus_mod.load_prediction_csv(args.truth)
    ids = sorted(set(pred) & set(truth))
    if len(ids) < 2:
        raise SystemExit("need at least 2 common video ids")
    value = srcc([pred[v] for v in ids], [truth[v] for v in ids])
    print(f"{value:.6f}")


def cmd_ensemble_search(args):
    tables = []
    for path in args.pred:
        scores = corpus_mod.load_prediction_csv(path)
        tables.append(PredictionTable(model_name=Path(path).stem, scores=scores,
                                      coverage={v: "direct" for v in scores},
                                      aggregation="median"))
    truth = load_labels_csv(args.truth, "short")
    weights = grid_search(tables, truth, bucket=args.bucket)
    doc = {"model_names": list(weights.model_names),
           "weights": list(weights.weights),
           "bucket": weights.bucket,
           "validation_srcc": weights.validation_srcc}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"best validation SRCC {weights.validation_srcc:.6f} -> {args.out}")


def _load_corpus_from_config(cfg, base):
    data = cfg["data"]
    c = Corpus()
    for spec in data.get("features", []):
        c.features[spec["name"]] = corpus_mod.load_feature_csv(
            base / spec["path"], spec["modality"], spec["name"])
    for term, path in data.get("labels", {}).items():
        c.labels[term] = load_labels_csv(base / path, term)
    if data.get("captions"):
        c.captions = corpus_mod.load_captions_csv(base / data["captions"])
    if data.get("word_vectors"):
        c.word_vectors = corpus_mod.load_word_vectors(base / data["word_vectors"])
    return c


def _configs(entries):
    return [FeatureModelConfig(feature=e["feature"],
                               model=LINEAR_ALIASES.get(e["model"], e["model"]),
                               hyper=e.get("hyper", {}))
            for e in entries]


def _check_config(cfg, path):
    """Reject a config that cannot run before any data is loaded or model
    trained: `data` must be present, and every model entry must name a known
    kind and a feature set from `data.features` (`captions` for a GRU)."""
    def fail(message):
        raise ValueError(f"{path}: {message}")

    if not isinstance(cfg, dict) or not isinstance(cfg.get("data"), dict):
        fail("missing 'data' object")
    data = cfg["data"]
    for i, spec in enumerate(data.get("features", [])):
        if not isinstance(spec, dict) or not {"name", "path", "modality"} <= spec.keys():
            fail(f"data.features[{i}] needs 'name', 'path' and 'modality'")
    features = {spec["name"] for spec in data.get("features", [])}
    for section in ("feature_models", "ensemble_models"):
        for i, entry in enumerate(cfg.get(section, [])):
            where = f"{section}[{i}]"
            if not isinstance(entry, dict) or not {"feature", "model"} <= entry.keys():
                fail(f"{where} needs 'feature' and 'model'")
            feature, kind = entry["feature"], LINEAR_ALIASES.get(entry["model"], entry["model"])
            if kind not in MODEL_KINDS:
                fail(f"{where}: unknown model kind {entry['model']!r}")
            if kind == "gru":
                if feature != "captions":
                    fail(f"{where}: a gru model reads 'captions', not {feature!r}")
                if not (data.get("captions") and data.get("word_vectors")):
                    fail(f"{where}: a gru model needs data.captions and data.word_vectors")
            elif feature not in features:
                fail(f"{where}: feature set {feature!r} is not in data.features")


def cmd_experiment(args):
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{cfg_path}: {exc}") from None
    _check_config(cfg, cfg_path)
    base = cfg_path.parent
    c = _load_corpus_from_config(cfg, base)
    test_labels = None
    if cfg.get("test_labels"):
        test_labels = {term: load_labels_csv(base / path, term)
                       for term, path in cfg["test_labels"].items()}
    report = run_full_experiment(
        c,
        feature_configs=_configs(cfg.get("feature_models", [])),
        ensemble_configs=_configs(cfg.get("ensemble_models", [])),
        seeds=cfg.get("seeds", [0, 1, 2, 3, 4]),
        bucket=cfg.get("bucket", 0.05),
        train_fraction=cfg.get("train_fraction", 0.8),
        aggregation=cfg.get("aggregation", "median"),
        test_labels=test_labels,
        workers=int(cfg.get("workers", 1)),
    )
    out_dir = base / cfg.get("output_dir", "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_to_json(report))
    (out_dir / "report.txt").write_text(report_to_text(report))
    print(f"report written to {out_dir}")


def cmd_synth(args):
    spec_doc = json.loads(Path(args.spec).read_text()) if args.spec else {}
    spec = SyntheticCorpusSpec(**spec_doc)
    synth = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    c = synth.corpus
    corpus_mod.write_annotations_csv(c.annotations["short"], out / "annotations.csv")
    for name, fs in c.features.items():
        corpus_mod.write_feature_csv(fs, out / f"{name}.csv")
    corpus_mod.write_captions_csv(c.captions, out / "captions.csv")
    for term, table in c.labels.items():
        corpus_mod.write_labels_csv(table, out / f"labels_{term}.csv")
    truth = {"alpha": synth.true_alpha, "m_star": synth.true_m,
             "informative_feature": synth.informative_feature,
             "spec": asdict(spec)}
    (out / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True))
    print(f"synthetic corpus ({spec.n_videos} videos) written to {out}")


def build_parser():
    parser = argparse.ArgumentParser(prog="vidmem",
                                     description="Video memorability modeling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adjust-labels", help="fit the decay model and export adjusted labels")
    p.add_argument("--annotations", required=True)
    p.add_argument("--target-duration", type=float, default=75.0)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--term", choices=("short", "long"), default="short")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adjust_labels)

    p = sub.add_parser("train", help="train one per-modality model")
    p.add_argument("--features")
    p.add_argument("--captions")
    p.add_argument("--word-vectors")
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True,
                   choices=("ols", "ridge", "lasso", "bayes", "svr", "gru"))
    p.add_argument("--params", help="hyperparameters as a JSON object")
    p.add_argument("--modality", default="video",
                   choices=("audio", "image", "video", "text"))
    p.add_argument("--term", choices=("short", "long"), default="short")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score videos with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features")
    p.add_argument("--captions")
    p.add_argument("--word-vectors")
    p.add_argument("--modality", default="video",
                   choices=("audio", "image", "video", "text"))
    p.add_argument("--aggregate", default="median",
                   choices=("median", "mean", "max", "min"))
    p.add_argument("--ids", help="text file with one video id per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="print SRCC between prediction and truth CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble-search", help="grid-search simplex ensemble weights")
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--bucket", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble_search)

    p = sub.add_parser("experiment", help="run the full protocol from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known truth")
    p.add_argument("--spec", help="JSON file of generator settings")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
