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
from .aggregate import STRATEGIES, PredictionTable
from .corpus import MODALITIES, TERMS, Corpus, load_labels_csv
from .decay import adjust_labels, fit_decay
from .ensemble import _bucket_count, grid_search
from .harness import (FeatureModelConfig, SyntheticCorpusSpec,
                      check_train_fraction, generate_synthetic, predict_table,
                      report_to_json, report_to_text, run_full_experiment,
                      train_feature_model, write_prediction_csv)
from .metrics import srcc
from .regress import ConvergenceError
from .textmodel import GruRegressor, TrainingDivergedError

LINEAR_ALIASES = {"bayes": "bayes_ridge"}

# the keys each object of an experiment config may hold
_CONFIG_KEYS = {
    "top": {"data", "feature_models", "ensemble_models", "seeds", "bucket", "train_fraction",
            "aggregation", "workers", "test_labels", "output_dir"},
    "data": {"features", "labels", "captions", "word_vectors"},
    "feature set": {"name", "path", "modality"},
    "model entry": {"feature", "model", "hyper"},
}


def cmd_adjust_labels(args):
    log = corpus_mod.load_annotations_csv(args.annotations)
    fit = fit_decay(log, args.target_duration, args.iterations)
    corpus_mod.write_labels_csv(adjust_labels(fit), args.out)
    sidecar = {"alpha": fit.alpha, "alpha_trajectory": list(fit.alpha_trajectory),
               "iterations_run": fit.iterations_run,
               "target_duration": fit.target_duration,
               "warnings": list(fit.warnings)}
    with open(str(args.out) + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"alpha={fit.alpha:.6f} videos={len(fit.m_t)} -> {args.out}")


def _corpus_for_model(args, kind, hyper=None):
    """A `kind` model's entry and the corpus it reads from files: --captions
    for a GRU, else --features as feature set "feature"."""
    config = FeatureModelConfig("captions" if kind == "gru" else "feature", kind, hyper or {})
    c = Corpus()
    if kind == "gru":
        if not args.captions or not args.word_vectors:
            raise ValueError("gru model requires --captions and --word-vectors")
        c.captions = corpus_mod.load_captions_csv(args.captions)
        c.word_vectors = corpus_mod.load_word_vectors(args.word_vectors)
    else:
        if not args.features:
            raise ValueError(f"{kind} model requires --features")
        c.features["feature"] = corpus_mod.load_feature_csv(args.features, "video", "feature")
    return config, c


def cmd_train(args):
    try:
        hyper = json.loads(args.params) if args.params else {}
    except ValueError as exc:
        raise ValueError(f"--params: {exc}") from None
    if not isinstance(hyper, dict):
        raise ValueError("--params must be a JSON object")
    config, c = _corpus_for_model(args, LINEAR_ALIASES.get(args.model, args.model), hyper)
    labels = load_labels_csv(args.labels, "short")
    ids = list(labels.scores)
    model = train_feature_model(c, config, labels, ids, seed=args.seed)
    regress.save_model(model, args.out)
    print(f"trained {config.model} on {len(ids)} videos -> {args.out}")


def cmd_predict(args):
    model = regress.load_model(args.model)
    config, c = _corpus_for_model(args, "gru" if isinstance(model, GruRegressor)
                                  else "svr" if isinstance(model, regress.SvrModel)
                                  else model.kind)
    if args.ids:
        ids = [line.strip() for line in Path(args.ids).read_text().splitlines() if line.strip()]
    elif config.model == "gru":
        ids = list(c.captions.captions)
    else:
        ids = list(c.features[config.feature].rows)
    table = predict_table(c, config, model, ids, aggregation=args.aggregate)
    write_prediction_csv(table, args.out)
    print(f"wrote {len(ids)} predictions -> {args.out}")


def cmd_evaluate(args):
    pred = corpus_mod.load_prediction_csv(args.pred)
    truth = corpus_mod.load_prediction_csv(args.truth)
    ids = sorted(set(pred) & set(truth))
    if len(ids) < 2:
        raise ValueError("need at least 2 common video ids")
    value = srcc([pred[v] for v in ids], [truth[v] for v in ids])
    print(f"{value:.6f}")


def cmd_ensemble_search(args):
    tables = []
    for path in args.pred:
        scores = corpus_mod.load_prediction_csv(path)
        tables.append(PredictionTable(model_name=Path(path).stem, scores=scores,
                                      coverage={v: "direct" for v in scores}))
    truth = load_labels_csv(args.truth, "short")
    weights = grid_search(tables, truth, bucket=args.bucket)
    doc = {"model_names": list(weights.model_names),
           "weights": list(weights.weights),
           "bucket": weights.bucket,
           "validation_srcc": weights.validation_srcc}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"best validation SRCC {weights.validation_srcc:.6f} -> {args.out}")


def _label_tables(base, paths):
    return {term: load_labels_csv(base / path, term) for term, path in paths.items()}


def _load_corpus_from_config(cfg, base):
    data = cfg["data"]
    c = Corpus()
    for spec in data.get("features", []):
        c.features[spec["name"]] = corpus_mod.load_feature_csv(
            base / spec["path"], spec["modality"], spec["name"])
    c.labels = _label_tables(base, data.get("labels", {}))
    if data.get("captions"):
        c.captions = corpus_mod.load_captions_csv(base / data["captions"])
    if data.get("word_vectors"):
        c.word_vectors = corpus_mod.load_word_vectors(base / data["word_vectors"])
    return c


def _check_config(cfg, path):
    """Reject a config that cannot run, before any data is loaded, and return
    its feature and ensemble model entries as `FeatureModelConfig`s.  Every
    error names the config path and the offending key."""
    def fail(message):
        raise ValueError(f"{path}: {message}")

    def known_keys(obj, kind, where=""):
        unknown = sorted(set(obj) - _CONFIG_KEYS[kind])
        if unknown:
            fail(f"{where}unknown key {unknown[0]!r}")

    if not isinstance(cfg, dict) or not isinstance(cfg.get("data"), dict):
        fail("missing 'data' object")
    data = cfg["data"]
    known_keys(cfg, "top")
    known_keys(data, "data", "data: ")
    for where, value in (("data.features", data.get("features", [])),
                         ("feature_models", cfg.get("feature_models", [])),
                         ("ensemble_models", cfg.get("ensemble_models", []))):
        if not isinstance(value, list):
            fail(f"'{where}' must be a list")
    for i, spec in enumerate(data.get("features", [])):
        if not isinstance(spec, dict) or not {"name", "path", "modality"} <= spec.keys():
            fail(f"data.features[{i}] needs 'name', 'path' and 'modality'")
        known_keys(spec, "feature set", f"data.features[{i}]: ")
        if not (isinstance(spec["name"], str) and isinstance(spec["path"], str)):
            fail(f"data.features[{i}]: 'name' and 'path' must be strings")
        if spec["modality"] not in MODALITIES:
            fail(f"data.features[{i}]: unknown modality {spec['modality']!r}")
    features = {spec["name"] for spec in data.get("features", [])}
    for where, tables in (("data.labels", data.get("labels", {})),
                          ("test_labels", cfg.get("test_labels") or {})):
        if not (isinstance(tables, dict) and all(isinstance(p, str) for p in tables.values())):
            fail(f"{where} must map terms to path strings")
        for term in tables:
            if term not in TERMS:
                fail(f"{where}: term must be one of {TERMS}, got {term!r}")
    for key, value in (("data.captions", data.get("captions") or ""),
                       ("data.word_vectors", data.get("word_vectors") or ""),
                       ("output_dir", cfg.get("output_dir", "out"))):
        if not isinstance(value, str):
            fail(f"{key} must be a path string")
    seeds = cfg.get("seeds")
    if "seeds" in cfg and not (isinstance(seeds, list) and seeds
                               and all(type(seed) is int for seed in seeds)):
        fail("'seeds' must be a non-empty list of integers")
    for key, rule in (("bucket", _bucket_count), ("train_fraction", check_train_fraction)):
        if key in cfg:
            if type(cfg[key]) not in (int, float):
                fail(f"'{key}' must be a number")
            try:
                rule(cfg[key])
            except ValueError as exc:
                fail(str(exc))
    if cfg.get("aggregation", "median") not in STRATEGIES:
        fail(f"unknown aggregation {cfg['aggregation']!r}")
    if type(cfg.get("workers", 1)) is not int:
        fail("'workers' must be an integer")
    sections = {"feature_models": [], "ensemble_models": []}
    for section, configs in sections.items():
        for i, entry in enumerate(cfg.get(section, [])):
            where = f"{section}[{i}]"
            if not isinstance(entry, dict) or not {"feature", "model"} <= entry.keys():
                fail(f"{where} needs 'feature' and 'model'")
            known_keys(entry, "model entry", f"{where}: ")
            model = entry["model"]
            if isinstance(model, str):
                model = LINEAR_ALIASES.get(model, model)
            try:
                config = FeatureModelConfig(entry["feature"], model, entry.get("hyper", {}))
            except ValueError as exc:
                fail(f"{where}: {exc}")
            if config.model == "gru":
                if not (data.get("captions") and data.get("word_vectors")):
                    fail(f"{where}: a gru model needs data.captions and data.word_vectors")
            elif config.feature not in features:
                fail(f"{where}: feature set {config.feature!r} is not in data.features")
            configs.append(config)
    return sections["feature_models"], sections["ensemble_models"]


def cmd_experiment(args):
    cfg_path = Path(args.config)
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{cfg_path}: {exc}") from None
    feature_configs, ensemble_configs = _check_config(cfg, cfg_path)
    base = cfg_path.parent
    c = _load_corpus_from_config(cfg, base)
    test_labels = _label_tables(base, cfg["test_labels"]) if cfg.get("test_labels") else None
    settings = {key: cfg[key] for key in ("seeds", "bucket", "train_fraction", "aggregation",
                                          "workers") if key in cfg}
    report = run_full_experiment(c, feature_configs, ensemble_configs,
                                 test_labels=test_labels, **settings)
    out_dir = base / cfg.get("output_dir", "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_to_json(report))
    (out_dir / "report.txt").write_text(report_to_text(report))
    print(f"report written to {out_dir}")


def _read_synth_spec(path):
    """The generator settings in a JSON spec file; every error names the file."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("spec must be a JSON object")
        unknown = sorted(set(doc) - set(SyntheticCorpusSpec.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        return SyntheticCorpusSpec(**doc)
    except ValueError as exc:  # invalid JSON included
        raise ValueError(f"{path}: {exc}") from None


def cmd_synth(args):
    spec = _read_synth_spec(args.spec) if args.spec else SyntheticCorpusSpec()
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score videos with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features")
    p.add_argument("--captions")
    p.add_argument("--word-vectors")
    p.add_argument("--aggregate", default="median", choices=STRATEGIES)
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
    except (ValueError, OSError, ConvergenceError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
