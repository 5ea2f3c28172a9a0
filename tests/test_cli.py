import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from settings_cases import BAD_SETTINGS
from vidmem import cli, harness
from vidmem.aggregate import PredictionTable
from vidmem.cli import _CONFIG_KEYS, LINEAR_ALIASES, main
from vidmem.corpus import (Corpus, FeatureSet, LabelTable, clamp_unit, load_captions_csv,
                           load_feature_csv, load_labels_csv, load_prediction_csv,
                           load_word_vectors, write_feature_csv, write_labels_csv,
                           write_prediction_csv)
from vidmem.ensemble import grid_search
from vidmem.harness import (FeatureModelConfig, SyntheticCorpusSpec, generate_synthetic,
                            predict_table, train_feature_model)
from vidmem.metrics import srcc
from vidmem.regress import model_to_dict, save_model
from vidmem.textmodel import GruRegressor, TrainingDivergedError


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = out / "spec.json"
    spec.write_text(json.dumps({"n_videos": 60, "obs_per_video": 10,
                                "feature_dim": 4, "seed": 0}))
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def test_synth_writes_expected_files(synth_dir):
    for name in ("annotations.csv", "featA.csv", "featB.csv", "captions.csv",
                 "labels_short.csv", "labels_long.csv", "truth.json"):
        assert (synth_dir / name).exists()


# Generator settings whose `vidmem synth` output is pinned: one video, noise
# on and off (a subnormal noise scale among them), 1 and 3 rows per video,
# 1 to 30 trials per video, feature widths 1 to 32, m_low == m_high, equal
# integer delay bounds, clipped recall probabilities, and the default spec.
SYNTH_PINNED_SPECS = {
    "default": {},
    "one-video": {"n_videos": 1, "obs_per_video": 1, "feature_dim": 1, "seed": 3},
    "noisy-rows": {"n_videos": 40, "rows_per_video": 3, "feature_dim": 32, "noise": 0.2,
                   "seed": 5},
    "pinned-m": {"n_videos": 25, "obs_per_video": 7, "m_low": 0.5, "m_high": 0.5,
                 "feature_dim": 2, "noise": 0.05, "seed": 7},
    "labels-shape": {"n_videos": 60, "feature_dim": 1, "seed": 1},
    "clipped": {"n_videos": 30, "obs_per_video": 1, "true_alpha": 0.5, "m_low": 0, "m_high": 1,
                "delay_low": 10, "delay_high": 900, "rows_per_video": 3, "feature_dim": 2,
                "noise": 1, "seed": 11},
    "equal-delays": {"n_videos": 12, "obs_per_video": 30, "delay_low": 75, "delay_high": 75,
                     "rows_per_video": 3, "feature_dim": 1, "noise": 1e-320, "seed": 13},
}


def _pinned_synth_corpora(tmp_path):
    """SHA-256 and size of every file `vidmem synth` writes, and of the
    `repr` of the generator's `true_m`, per pinned spec."""
    def digest(data):
        return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    out = {}
    for name, doc in SYNTH_PINNED_SPECS.items():
        spec, where = tmp_path / f"{name}.json", tmp_path / name
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(where)]) == 0
        files = {path.name: digest(path.read_bytes()) for path in sorted(where.iterdir())}
        true_m = repr(generate_synthetic(SyntheticCorpusSpec(**doc)).true_m)
        out[name] = {"spec": doc, "files": files, "true_m": digest(true_m.encode())}
    return json.dumps(out, indent=1) + "\n"


def test_synth_bytes_match_recording(tmp_path):
    """The generator's draw order and the writers' bytes are pinned: a
    change to either moves these digests."""
    recorded = (Path(__file__).parent / "data" / "synthetic_parent_corpora.json").read_text()
    assert _pinned_synth_corpora(tmp_path) == recorded


@pytest.mark.parametrize("block", [1, 10_000])
def test_synth_bytes_independent_of_word_block(tmp_path, monkeypatch, block):
    """Refilling the caption words after every word, or drawing far past the
    last caption, leaves every file and `true_m` as recorded."""
    monkeypatch.setattr(harness, "_WORD_BLOCK", block)
    recorded = (Path(__file__).parent / "data" / "synthetic_parent_corpora.json").read_text()
    assert _pinned_synth_corpora(tmp_path) == recorded


def test_adjust_labels(synth_dir, tmp_path):
    out = tmp_path / "adjusted.csv"
    code = main(["adjust-labels", "--annotations", str(synth_dir / "annotations.csv"),
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    meta = json.loads((tmp_path / "adjusted.csv.meta.json").read_text())
    assert len(meta["alpha_trajectory"]) == meta["iterations_run"]
    scores = {line.split(",")[0]: float(line.split(",")[1])
              for line in out.read_text().splitlines()}
    assert len(scores) == 60
    assert all(0.0 <= v <= 1.0 for v in scores.values())


@pytest.mark.parametrize("duration", ["inf", "1e-310"])
def test_non_finite_log_ratio_rejected(synth_dir, tmp_path, capsys, duration):
    """t/T is 0 for T = inf and overflows for T = 1e-310: an error, with no
    numpy warning before it and no label or sidecar file."""
    code = main(["adjust-labels", "--annotations", str(synth_dir / "annotations.csv"),
                 "--target-duration", duration, "--out", str(tmp_path / "adjusted.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: log(delay / target duration) is not finite for target duration {duration}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def word_vectors(synth_dir):
    """Random 4-d vectors for every word of the synthetic captions."""
    words = set()
    for line in (synth_dir / "captions.csv").read_text().splitlines():
        words.update(line.split(",", 1)[1].strip('"').split())
    rng = np.random.default_rng(0)
    wv = synth_dir / "wv.txt"
    wv.write_text("\n".join(
        w + " " + " ".join(repr(float(x)) for x in rng.normal(size=4)) for w in sorted(words)) + "\n")
    return wv


@pytest.mark.parametrize("model, params", [("ols", "{}"), ("ridge", '{"lam": 1.0}'),
                                           ("lasso", '{"lam": 0.001}'), ("bayes", "{}"),
                                           ("svr", '{"epsilon": 0.05}'),
                                           ("gru", '{"hidden_units": 4, "max_epochs": 2}')],
                         ids=["ols", "ridge", "lasso", "bayes", "svr", "gru"])
def test_train_predict_evaluate_round(synth_dir, word_vectors, tmp_path, model, params):
    inputs = (["--captions", str(synth_dir / "captions.csv"), "--word-vectors", str(word_vectors)]
              if model == "gru" else ["--features", str(synth_dir / "featA.csv")])
    model_path = tmp_path / f"{model}.json"
    code = main(["train", *inputs, "--labels", str(synth_dir / "labels_short.csv"),
                 "--model", model, "--params", params, "--out", str(model_path)])
    assert code == 0

    pred_path = tmp_path / "pred.csv"
    code = main(["predict", "--model", str(model_path), *inputs, "--out", str(pred_path)])
    assert code == 0
    assert len(pred_path.read_text().splitlines()) == 60

    code = main(["evaluate", "--pred", str(pred_path),
                 "--truth", str(synth_dir / "labels_short.csv")])
    assert code == 0

    # the library, given the same inputs, writes the same model and predictions
    corpus = Corpus()
    if model == "gru":
        corpus.captions = load_captions_csv(synth_dir / "captions.csv")
        corpus.word_vectors = load_word_vectors(word_vectors)
        config = FeatureModelConfig("captions", model, json.loads(params))
        ids = corpus.captions.captions
    else:
        corpus.features["featA"] = load_feature_csv(synth_dir / "featA.csv", "video", "featA")
        config = FeatureModelConfig("featA", LINEAR_ALIASES.get(model, model), json.loads(params))
        ids = corpus.features["featA"].rows
    labels = load_labels_csv(synth_dir / "labels_short.csv", "short")
    trained = train_feature_model(corpus, config, labels, list(labels.scores), seed=0)
    save_model(trained, tmp_path / "library.json")
    assert (tmp_path / "library.json").read_bytes() == model_path.read_bytes()
    write_prediction_csv(predict_table(corpus, config, trained, list(ids)), tmp_path / "library.csv")
    assert (tmp_path / "library.csv").read_bytes() == pred_path.read_bytes()


def test_evaluate_prints_srcc(synth_dir, tmp_path, capsys):
    # truth evaluated against itself has perfect rank correlation
    main(["evaluate", "--pred", str(synth_dir / "labels_short.csv"),
          "--truth", str(synth_dir / "labels_short.csv")])
    assert capsys.readouterr().out.strip() == "1.000000"


@pytest.mark.parametrize("side", ["pred", "truth"])
def test_evaluate_names_the_constant_file(tmp_path, capsys, side):
    """A file whose scores over the common ids are all equal is named, with
    the rank-correlation text after its path."""
    paths = {"pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv"}
    paths["pred"].write_text("v0,0.1\nv1,0.3\nv2,0.2\n")
    paths["truth"].write_text("v0,0.9\nv1,0.4,direct\nv2,0.6\n")
    paths[side].write_text("v0,0.5\nv1,0.5\nv2,0.5\n")
    assert main(["evaluate", "--pred", str(paths["pred"]), "--truth", str(paths["truth"])]) == 1
    assert capsys.readouterr().err == (f"error: {paths[side]}: "
                                       "constant input: rank correlation undefined\n")


def test_parser_built_once_per_process(synth_dir, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    argv = ["evaluate", "--pred", str(synth_dir / "labels_short.csv"),
            "--truth", str(synth_dir / "labels_long.csv")]
    assert main(argv) == main(argv) == 0
    assert len(built) == 1


def test_usage_error_leaves_the_parser_usable(synth_dir, capsys):
    """A call that argparse rejects (exit 2) changes nothing for the next
    call on the same parser."""
    argv = ["evaluate", "--pred", str(synth_dir / "labels_short.csv"),
            "--truth", str(synth_dir / "labels_long.csv")]
    assert main(argv) == 0
    expected = capsys.readouterr()
    for bad in (["evaluate", "--pred", argv[2]], [*argv, "--bucket", "0.1"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == expected


def test_ensemble_search_cli(synth_dir, tmp_path):
    model_path = tmp_path / "m.json"
    main(["train", "--features", str(synth_dir / "featA.csv"),
          "--labels", str(synth_dir / "labels_short.csv"),
          "--model", "ridge", "--out", str(model_path)])
    pred_a = tmp_path / "predA.csv"
    main(["predict", "--model", str(model_path),
          "--features", str(synth_dir / "featA.csv"), "--out", str(pred_a)])
    pred_b = tmp_path / "predB.csv"
    main(["predict", "--model", str(model_path),
          "--features", str(synth_dir / "featB.csv"), "--out", str(pred_b)])

    out = tmp_path / "weights.json"
    code = main(["ensemble-search", "--pred", str(pred_a), str(pred_b),
                 "--truth", str(synth_dir / "labels_short.csv"),
                 "--bucket", "0.05", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(sum(doc["weights"]) - 1.0) <= 1e-12
    assert doc["weights"][0] >= 0.8  # informative feature dominates


def test_experiment_command_writes_reports(synth_dir, tmp_path):
    cfg = {
        "data": {
            "features": [
                {"name": "featA", "path": str(synth_dir / "featA.csv"), "modality": "video"},
                {"name": "featB", "path": str(synth_dir / "featB.csv"), "modality": "image"},
            ],
            "labels": {"short": str(synth_dir / "labels_short.csv")},
        },
        "feature_models": [{"feature": "featA", "model": "ridge", "hyper": {"lam": 1.0}},
                           {"feature": "featB", "model": "ridge", "hyper": {"lam": 1.0}}],
        "ensemble_models": [{"feature": "featA", "model": "ridge"},
                            {"feature": "featB", "model": "ridge"}],
        "seeds": [0, 1],
        "output_dir": "out",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["features"]["rows"][0]["feature"] == "featA"
    assert (tmp_path / "out" / "report.txt").read_text()

    # a second run is byte-identical
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def _feature_only_config(synth_dir):
    return {
        "data": {
            "features": [
                {"name": "featA", "path": str(synth_dir / "featA.csv"), "modality": "video"},
            ],
            "labels": {"short": str(synth_dir / "labels_short.csv")},
        },
        "feature_models": [{"feature": "featA", "model": "ridge", "hyper": {"lam": 1.0}}],
        "seeds": [0],
    }


def test_feature_only_experiment_writes_reports(synth_dir, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_feature_only_config(synth_dir)))
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["features"]["rows"][0]["error"] is None
    assert report["ensemble"]["rows"] == []
    assert "Mean (ST)" in (tmp_path / "out" / "report.txt").read_text()


def _drop_data(cfg):
    del cfg["data"]


def _absent_feature(cfg):
    cfg["feature_models"].append({"feature": "featZ", "model": "ridge"})


def _unknown_kind(cfg):
    cfg["ensemble_models"] = [{"feature": "featA", "model": "forest"}]


def _gru_without_captions(cfg):
    cfg["feature_models"].append({"feature": "captions", "model": "gru"})


def _entry_without_model(cfg):
    cfg["ensemble_models"] = [{"feature": "featA"}]


def _hyper_not_object(cfg):
    cfg["feature_models"][0]["hyper"] = [1]


def _drop_labels(cfg):
    del cfg["data"]["labels"]


def _duplicate_feature_name(cfg):
    features = cfg["data"]["features"]
    features.append(dict(features[0], path=features[0]["path"].replace("featA", "featB")))


def _setting(*keys_and_value):
    """An edit that sets cfg[k1][k2]...[kn] = value."""
    *keys, last, value = keys_and_value

    def edit(cfg):
        target = cfg
        for key in keys:
            target = target[key]
        target[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop_data, "missing 'data' object"),
    (_absent_feature, "feature_models[1]: feature set 'featZ' is not in data.features"),
    (_unknown_kind, "ensemble_models[0]: unknown model kind 'forest'"),
    (_gru_without_captions,
     "feature_models[1]: a gru model needs data.captions and data.word_vectors"),
    (_entry_without_model, "ensemble_models[0] needs 'feature' and 'model'"),
    (_hyper_not_object, "feature_models[0]: 'hyper' must be a JSON object"),
    (_setting("feature_models", 0, "hyper", {"lamda": 50}),
     "feature_models[0]: unknown ridge hyperparameter 'lamda'"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "ridge", "hyper": {"lamda": 50}}]),
     "ensemble_models[0]: unknown ridge hyperparameter 'lamda'"),
    (_setting("feature_models", 0, "model", ["ridge"]), "feature_models[0]: 'model' must be a string"),
    (_setting("feature_models", 0, "feature", ["featA"]),
     "feature_models[0]: 'feature' must be a string"),
    (_setting("data", "features", 0, "name", ["featA"]),
     "data.features[0]: 'name' and 'path' must be strings"),
    (_setting("data", "features", 0, "path", 5),
     "data.features[0]: 'name' and 'path' must be strings"),
    (_setting("data", "features", 0, "modality", "smell"),
     "data.features[0]: unknown modality 'smell'"),
    (_duplicate_feature_name, "data.features[1]: duplicate name 'featA'"),
    (_setting("data", "captions", 5), "data.captions must be a path string"),
    (_setting("output_dir", 3), "output_dir must be a path string"),
    (_setting("data", "labels", ["labels_short.csv"]),
     "data.labels must map terms to path strings"),
    (_setting("test_labels", ["labels_short.csv"]), "test_labels must map terms to path strings"),
    (_setting("test_labels", {"long": "labels_long.csv"}),
     "test_labels: term 'long' is not in data.labels"),
    (_setting("data", "labels", {"medium": "labels_short.csv"}),
     "data.labels: term must be one of ('short', 'long'), got 'medium'"),
    (_drop_labels, "data.labels must name at least one term"),
    (_setting("feature_models", 3), "'feature_models' must be a list"),
    (_setting("seed", [0]), "unknown key 'seed'"),
    (_setting("data", "feature", []), "data: unknown key 'feature'"),
    (_setting("data", "features", 0, "dim", 4), "data.features[0]: unknown key 'dim'"),
    (_setting("feature_models", 0, "hyperr", {"lam": 50}),
     "feature_models[0]: unknown key 'hyperr'"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "ridge", "seeds": [0]}]),
     "ensemble_models[0]: unknown key 'seeds'"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "svr", "hyper": {"C": "1"}}]),
     "ensemble_models[0]: svr hyperparameter 'C' must be a number"),
    (_setting("feature_models", [{"feature": "featA", "model": "svr", "hyper": {"C": "1"}}]),
     "feature_models[0]: svr hyperparameter 'C' must be a number"),
    (_setting("feature_models", 0, "hyper", {"lam": None}),
     "feature_models[0]: ridge hyperparameter 'lam' must be a number"),
    (_setting("feature_models", 0, "hyper", {"lam": -1}), "feature_models[0]: ridge lam must be >= 0"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "lasso", "hyper": {"lam": -1}}]),
     "ensemble_models[0]: lasso lam must be >= 0"),
    (_setting("feature_models", [{"feature": "featA", "model": "lasso", "hyper": {"max_sweeps": 0}}]),
     "feature_models[0]: 'max_sweeps' must be an integer >= 1"),
    (_setting("feature_models", [{"feature": "featA", "model": "svr", "hyper": {"kernel": "poly"}}]),
     "feature_models[0]: unknown kernel 'poly'"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "svr", "hyper": {"C": 0}}]),
     "ensemble_models[0]: need C > 0 and epsilon >= 0"),
    (_setting("feature_models", [{"feature": "captions", "model": "gru",
                                  "hyper": {"validation_fraction": 1.0}}]),
     "feature_models[0]: 'validation_fraction' must lie in [0, 1)"),
    (_setting("feature_models", [{"feature": "captions", "model": "gru", "hyper": {"patience": 0}}]),
     "feature_models[0]: 'patience' must be an integer >= 1"),
    (_setting("feature_models", [{"feature": "featA", "model": "svr", "hyper": {"gamma": -1}}]),
     "feature_models[0]: 'gamma' must be > 0 or null"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "svr", "hyper": {"gamma": 0}}]),
     "ensemble_models[0]: 'gamma' must be > 0 or null"),
    (_setting("feature_models", [{"feature": "featA", "model": "svr", "hyper": {"tol": 0}}]),
     "feature_models[0]: svr tol must be > 0"),
    (_setting("feature_models", [{"feature": "featA", "model": "lasso", "hyper": {"tol": -1}}]),
     "feature_models[0]: lasso tol must be > 0"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "bayes_ridge",
                                   "hyper": {"tol": 0}}]),
     "ensemble_models[0]: bayes_ridge tol must be > 0"),
    (_setting("feature_models", [{"feature": "captions", "model": "gru",
                                  "hyper": {"learning_rate": 0}}]),
     "feature_models[0]: 'learning_rate' must be > 0"),
    (_setting("ensemble_models", [{"feature": "captions", "model": "gru",
                                   "hyper": {"learning_rate": -1}}]),
     "ensemble_models[0]: 'learning_rate' must be > 0"),
    (_setting("feature_models", [{"feature": "captions", "model": "gru", "hyper": {"beta1": 0.9}}]),
     "feature_models[0]: unknown gru hyperparameter 'beta1'"),
    *[(_setting(key, value), message) for settings, message in BAD_SETTINGS.values()
      for key, value in settings.items()],
], ids=["no-data", "absent-feature", "unknown-kind", "gru-without-captions",
        "entry-without-model", "hyper-not-object", "unknown-feature-model-key",
        "unknown-ensemble-model-key", "model-not-string", "feature-not-string", "feature-name-not-string",
        "feature-path-not-string", "unknown-modality", "duplicate-feature-name",
        "captions-not-string",
        "output-dir-not-string", "labels-not-object", "test-labels-not-object", "untrained-test-term",
        "unknown-label-term", "no-labels", "models-not-list", "unknown-top-key", "unknown-data-key",
        "unknown-feature-set-key", "unknown-feature-model-entry-key",
        "unknown-ensemble-model-entry-key", "ensemble-hyper-not-number",
        "feature-hyper-not-number", "null-lam", "negative-ridge-lam", "negative-lasso-lam",
        "zero-max-sweeps", "poly-kernel", "zero-c", "validation-fraction-one", "zero-patience",
        "negative-gamma", "zero-gamma", "zero-svr-tol", "negative-lasso-tol",
        "zero-bayes-tol", "zero-learning-rate", "negative-learning-rate", "gru-beta1",
        *BAD_SETTINGS])
def test_bad_experiment_config_rejected_before_training(synth_dir, tmp_path, capsys,
                                                        monkeypatch, edit, message):
    def not_reached(*args, **kwargs):
        raise AssertionError("loaded data or trained despite a bad config")

    monkeypatch.setattr("vidmem.cli._load_corpus_from_config", not_reached)
    monkeypatch.setattr("vidmem.harness.train_feature_model", not_reached)
    cfg = _feature_only_config(synth_dir)
    edit(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_unsplittable_corpus_rejected(synth_dir, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text((synth_dir / "labels_short.csv").read_text().splitlines()[0] + "\n")
    cfg = _feature_only_config(synth_dir)
    cfg["data"]["labels"] = {"short": str(labels)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: need at least 2 ids to split\n"
    assert not (tmp_path / "out").exists()


def _train_argv(synth_dir, tmp_path, model, params):
    argv = ["train", "--labels", str(synth_dir / "labels_short.csv"), "--model", model,
            "--params", params, "--out", str(tmp_path / "m.json")]
    if model == "gru":
        wv = tmp_path / "wv.txt"
        wv.write_text("a 0.1 0.2\n")
        return argv + ["--captions", str(synth_dir / "captions.csv"), "--word-vectors", str(wv)]
    return argv + ["--features", str(synth_dir / "featA.csv")]


@pytest.mark.parametrize("model, params, message", [
    ("ridge", "[1]", "--params must be a JSON object"),
    ("svr", '{"bogus": 1}', "unknown svr hyperparameter 'bogus'"),
    ("gru", '{"hidden_units": 4, "bogus": 1}', "unknown gru hyperparameter 'bogus'"),
    ("ridge", '{"lamda": 50}', "unknown ridge hyperparameter 'lamda'"),
    ("ols", '{"lam": 1.0}', "unknown ols hyperparameter 'lam'"),
    ("ridge", "{lam: 1}",
     "--params: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("gru", '{"hidden_units": 4, "dense_widths": []}', "final dense width must be 1"),
    ("svr", '{"C": "1"}', "svr hyperparameter 'C' must be a number"),
    ("svr", '{"gamma": "0.1"}', "svr hyperparameter 'gamma' must be a number or null"),
    ("ridge", '{"lam": [1]}', "ridge hyperparameter 'lam' must be a number"),
    ("svr", '{"epsilon": true}', "svr hyperparameter 'epsilon' must be a number"),
    ("bayes", '{"tol": NaN}', "bayes_ridge hyperparameter 'tol' must be a number"),
    ("lasso", '{"max_sweeps": 10.0}', "lasso hyperparameter 'max_sweeps' must be an integer"),
    ("svr", '{"kernel": 1}', "svr hyperparameter 'kernel' must be a string"),
    ("gru", '{"dense_widths": [2.0, 1]}',
     "gru hyperparameter 'dense_widths' must be a list of integers"),
    ("gru", '{"hidden_units": 0}', "'hidden_units' must be an integer >= 1"),
    ("gru", '{"dense_widths": [0, 1]}', "'dense_widths' must be a list of positive integers"),
    ("gru", '{"max_epochs": 0}', "'max_epochs' must be an integer >= 1"),
    ("gru", '{"batch_size": 0}', "'batch_size' must be an integer >= 1"),
    ("ridge", '{"lam": -1}', "ridge lam must be >= 0"),
    ("lasso", '{"lam": -1}', "lasso lam must be >= 0"),
    ("lasso", '{"max_sweeps": 0}', "'max_sweeps' must be an integer >= 1"),
    ("svr", '{"kernel": "poly"}', "unknown kernel 'poly'"),
    ("svr", '{"C": 0}', "need C > 0 and epsilon >= 0"),
    ("gru", '{"validation_fraction": 1.0}', "'validation_fraction' must lie in [0, 1)"),
    ("gru", '{"patience": 0}', "'patience' must be an integer >= 1"),
    ("svr", '{"gamma": -1}', "'gamma' must be > 0 or null"),
    ("svr", '{"gamma": 0}', "'gamma' must be > 0 or null"),
    ("svr", '{"tol": 0}', "svr tol must be > 0"),
    ("lasso", '{"tol": -1}', "lasso tol must be > 0"),
    ("bayes", '{"tol": 0}', "bayes_ridge tol must be > 0"),
    ("gru", '{"learning_rate": 0}', "'learning_rate' must be > 0"),
    ("gru", '{"learning_rate": -1}', "'learning_rate' must be > 0"),
    ("gru", '{"beta1": -5}', "unknown gru hyperparameter 'beta1'"),
    ("gru", '{"adam_eps": -1e-8}', "unknown gru hyperparameter 'adam_eps'"),
], ids=["params-not-object", "unknown-svr-key", "unknown-gru-key", "unknown-ridge-key",
        "unknown-ols-key", "params-not-json", "gru-without-dense-layers", "string-c",
        "string-gamma", "list-lam", "boolean-epsilon", "nan-tol", "float-max-sweeps",
        "numeric-kernel", "float-dense-width", "zero-hidden-units", "zero-dense-width",
        "zero-max-epochs", "zero-batch-size", "negative-ridge-lam", "negative-lasso-lam",
        "zero-max-sweeps", "poly-kernel", "zero-c", "validation-fraction-one", "zero-patience",
        "negative-gamma", "zero-gamma", "zero-svr-tol", "negative-lasso-tol", "zero-bayes-tol",
        "zero-learning-rate", "negative-learning-rate", "gru-beta1", "gru-adam-eps"])
def test_malformed_train_params_rejected(synth_dir, tmp_path, capsys, model, params, message):
    assert main(_train_argv(synth_dir, tmp_path, model, params)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.json").exists()


def _train_svr_one_update(synth_dir, tmp_path, monkeypatch):
    return _train_argv(synth_dir, tmp_path, "svr", '{"max_iter": 1}')


def _train_lasso_one_sweep(synth_dir, tmp_path, monkeypatch):
    return _train_argv(synth_dir, tmp_path, "lasso", '{"lam": 0.001, "max_sweeps": 1}')


def _experiment_svr_one_update(synth_dir, tmp_path, monkeypatch):
    cfg = _feature_only_config(synth_dir)
    cfg["ensemble_models"] = [{"feature": "featA", "model": "svr", "hyper": {"max_iter": 1}}]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return ["experiment", "--config", str(cfg_path)]


def _train_gru_diverges(synth_dir, tmp_path, monkeypatch):
    def diverge(model, samples):
        raise TrainingDivergedError("non-finite training loss at epoch 3")

    monkeypatch.setattr("vidmem.harness.gru_train", diverge)
    return _train_argv(synth_dir, tmp_path, "gru", '{"hidden_units": 4}')


@pytest.mark.parametrize("argv, message", [
    (_train_svr_one_update, "SVR SMO did not converge in 1 pair updates"),
    (_train_lasso_one_sweep, "lasso did not converge in 1 sweeps"),
    (_experiment_svr_one_update, "SVR SMO did not converge in 1 pair updates"),
    (_train_gru_diverges, "non-finite training loss at epoch 3"),
], ids=["train-svr", "train-lasso", "experiment-svr", "train-gru"])
def test_solver_failure_exits_1_without_traceback(synth_dir, tmp_path, capsys, monkeypatch,
                                                  argv, message):
    assert main(argv(synth_dir, tmp_path, monkeypatch)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line, message", [("v0001", "expected 2, 3 or 4 fields, got 1"),
                                           ("v0001,high", "non-numeric score: 'high'"),
                                           ("v0001,nan,direct", "non-finite score: 'nan'")])
def test_malformed_prediction_csv_reports_line(synth_dir, tmp_path, capsys, line, message):
    pred = tmp_path / "pred.csv"
    pred.write_text("v0000,0.5,direct\n" + line + "\n")
    truth = str(synth_dir / "labels_short.csv")
    for argv in (["evaluate", "--pred", str(pred), "--truth", truth],
                 ["ensemble-search", "--pred", str(pred), "--truth", truth,
                  "--out", str(tmp_path / "w.json")]):
        assert main(argv) == 1
        assert f"error: {pred}:2: {message}" in capsys.readouterr().err


# kind: (the file given a 0xff byte, the line that holds it, the command that reads
# it).  Line 500 of the annotations lies past the text reader's first 8 KiB chunk.
_UNDECODABLE = {
    "annotations": ("annotations.csv", 500, "adjust-labels --annotations {bad} --out {out}"),
    "annotations-line-1": ("annotations.csv", 1, "adjust-labels --annotations {bad} --out {out}"),
    "features": ("featA.csv", 2, "train --features {bad} --labels {synth}/labels_short.csv "
                                 "--model ridge --out {out}"),
    "features-line-1": ("featA.csv", 1, "train --features {bad} --labels "
                                        "{synth}/labels_short.csv --model ridge --out {out}"),
    "labels": ("labels_short.csv", 3, "train --features {synth}/featA.csv --labels {bad} "
                                      "--model ridge --out {out}"),
    "captions": ("captions.csv", 2, "train --captions {bad} --word-vectors {synth}/wv.txt "
                                    "--labels {synth}/labels_short.csv --model gru --out {out}"),
    "word-vectors": ("wv.txt", 4, "train --captions {synth}/captions.csv --word-vectors {bad} "
                                  "--labels {synth}/labels_short.csv --model gru --out {out}"),
    "predictions": ("labels_short.csv", 2, "evaluate --pred {bad} --truth {synth}/labels_short.csv"),
    "config": ("config.json", None, "experiment --config {bad}"),
    "model": ("model.json", None, "predict --model {bad} --features {synth}/featA.csv --out {out}"),
}


@pytest.mark.parametrize("kind", list(_UNDECODABLE))
def test_undecodable_file_named(synth_dir, word_vectors, tmp_path, capsys, kind):
    """A file that is not valid UTF-8 fails with exit code 1 and its path, and
    a line-based file also with the line that holds its first bad byte."""
    name, line_no, command = _UNDECODABLE[kind]
    if name == "config.json":
        data = json.dumps(_feature_only_config(synth_dir)).encode()
    elif name == "model.json":
        data = json.dumps(_RIDGE_FILE).encode()
    else:
        data = (synth_dir / name).read_bytes()
    lines = data.splitlines(keepends=True)
    k = (line_no or 1) - 1
    lines[k] = lines[k][:2] + b"\xff" + lines[k][2:]
    bad = tmp_path / name
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out.csv"
    assert main(command.format(bad=bad, synth=synth_dir, out=out).split()) == 1
    err = capsys.readouterr().err
    if line_no is None:
        assert err.startswith(f"error: {bad}: ")
    else:
        assert err == f"error: {bad}:{line_no}: not valid utf-8: byte 0xff (invalid start byte)\n"
    assert not out.exists()


def test_predictions_with_quoted_ids_read_back(tmp_path):
    """`predict` quotes an id that holds `"` as the other writers do, so
    that `evaluate` and `ensemble-search` read its output back."""
    rng = np.random.default_rng(3)
    ids = ['"lead', 'a"b', 'trail"', '""', *(f"v{i}" for i in range(8))]
    feats, labels, model, pred = (tmp_path / name for name in ("f.csv", "l.csv", "m.json", "p.csv"))
    write_feature_csv(FeatureSet("video", "feat", ids, rng.normal(size=(len(ids), 2))), feats)
    write_labels_csv(LabelTable("short", dict(zip(ids, rng.random(len(ids)).tolist()))), labels)
    assert main(["train", "--features", str(feats), "--labels", str(labels), "--model", "ridge",
                 "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--features", str(feats),
                 "--out", str(pred)]) == 0
    assert list(load_prediction_csv(pred)) == ids
    assert main(["evaluate", "--pred", str(pred), "--truth", str(labels)]) == 0
    assert main(["ensemble-search", "--pred", str(pred), "--truth", str(labels),
                 "--out", str(tmp_path / "w.json")]) == 0


def test_prediction_csv_scores_outside_unit_interval_accepted(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("v0000,-3.0\nv0001,7.5,direct\n")
    assert main(["evaluate", "--pred", str(pred), "--truth", str(pred)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_written_predictions_searched_and_evaluated_raw(tmp_path, capsys):
    """Scores outside [0, 1] round-trip through the raw 4th column bit for
    bit, so `ensemble-search` and `evaluate` on written tables give the
    library's answers, which the clamped 2nd column would not."""
    rng = np.random.default_rng(0)
    ids = [f"v{i:04d}" for i in range(40)]
    truth = LabelTable("short", dict(zip(ids, rng.random(40).tolist())))
    write_labels_csv(truth, tmp_path / "truth.csv")
    tables, paths = [], []
    for m in range(3):
        scores = dict(zip(ids, rng.normal(0.5, 1.0, 40).tolist()))
        tables.append(PredictionTable(f"m{m}", scores, dict.fromkeys(ids, "direct")))
        paths.append(str(tmp_path / f"m{m}.csv"))
        write_prediction_csv(tables[-1], paths[-1])
        assert load_prediction_csv(paths[-1]) == scores
    clamped = [PredictionTable(tb.model_name, {v: clamp_unit(x) for v, x in tb.scores.items()},
                               tb.coverage) for tb in tables]

    expected = grid_search(tables, truth, bucket=0.1)
    assert grid_search(clamped, truth, bucket=0.1).weights != expected.weights
    assert main(["ensemble-search", "--pred", *paths, "--truth", str(tmp_path / "truth.csv"),
                 "--bucket", "0.1", "--out", str(tmp_path / "w.json")]) == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    assert (doc["weights"], doc["validation_srcc"]) == (list(expected.weights),
                                                        expected.validation_srcc)

    t = [truth.scores[v] for v in ids]
    value = srcc([tables[0].scores[v] for v in ids], t)
    assert f"{value:.6f}" != f"{srcc([clamped[0].scores[v] for v in ids], t):.6f}"
    capsys.readouterr()
    assert main(["evaluate", "--pred", paths[0], "--truth", str(tmp_path / "truth.csv")]) == 0
    assert capsys.readouterr().out == f"{value:.6f}\n"


def _train_ridge_without_features(synth_dir, tmp_path):
    return ["train", "--labels", str(synth_dir / "labels_short.csv"), "--model", "ridge",
            "--out", str(tmp_path / "m.json")]


def _train_gru_without_word_vectors(synth_dir, tmp_path):
    return ["train", "--labels", str(synth_dir / "labels_short.csv"), "--model", "gru",
            "--captions", str(synth_dir / "captions.csv"), "--out", str(tmp_path / "m.json")]


def _evaluate_one_common_id(synth_dir, tmp_path):
    pred = tmp_path / "pred.csv"
    pred.write_text("v0000,0.5\nother,0.7\n")
    return ["evaluate", "--pred", str(pred), "--truth", str(synth_dir / "labels_short.csv")]


def _evaluate_no_common_id(synth_dir, tmp_path):
    pred = tmp_path / "pred.csv"
    pred.write_text("x0000,0.5\nx0001,0.7\n")
    return ["evaluate", "--pred", str(pred), "--truth", str(synth_dir / "labels_short.csv")]


def _search_table_missing_ids(synth_dir, tmp_path):
    labels = synth_dir / "labels_short.csv"
    (tmp_path / "half.csv").write_text("".join(labels.read_text().splitlines(True)[:30]))
    return ["ensemble-search", "--pred", str(tmp_path / "half.csv"), str(labels),
            "--truth", str(labels), "--out", str(tmp_path / "out.csv")]


def _predict_narrow_features(synth_dir, tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(_RIDGE_FILE))  # reads 4 features
    (tmp_path / "narrow.csv").write_text("v0000,0.5\nv0001,0.2\n")
    return ["predict", "--model", str(tmp_path / "m.json"),
            "--features", str(tmp_path / "narrow.csv"), "--out", str(tmp_path / "out.csv")]


def _predict_narrow_word_vectors(synth_dir, tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(_GRU_FILE))  # reads 4-d word vectors
    (tmp_path / "wv.txt").write_text("a 0.1\nvideo 0.2\n")
    return ["predict", "--model", str(tmp_path / "m.json"),
            "--captions", str(synth_dir / "captions.csv"),
            "--word-vectors", str(tmp_path / "wv.txt"), "--out", str(tmp_path / "out.csv")]


def _untokenizable_caption(synth_dir, tmp_path):
    """A captions file whose line 2 has no tokens, and a 4-d word-vector file."""
    lines = (synth_dir / "captions.csv").read_text().splitlines(keepends=True)
    lines[1] = lines[1].split(",")[0] + ",!!!\n"
    (tmp_path / "captions.csv").write_text("".join(lines))
    (tmp_path / "wv.txt").write_text("a 0.1 0.2 0.3 0.4\n")
    return str(tmp_path / "captions.csv"), str(tmp_path / "wv.txt")


def _train_caption_without_tokens(synth_dir, tmp_path):
    captions, wv = _untokenizable_caption(synth_dir, tmp_path)
    return ["train", "--labels", str(synth_dir / "labels_short.csv"), "--model", "gru",
            "--captions", captions, "--word-vectors", wv, "--out", str(tmp_path / "out.csv")]


def _predict_caption_without_tokens(synth_dir, tmp_path):
    captions, wv = _untokenizable_caption(synth_dir, tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(_GRU_FILE))
    return ["predict", "--model", str(tmp_path / "m.json"), "--captions", captions,
            "--word-vectors", wv, "--out", str(tmp_path / "out.csv")]


def _experiment_caption_without_tokens(synth_dir, tmp_path):
    captions, wv = _untokenizable_caption(synth_dir, tmp_path)
    cfg = _feature_only_config(synth_dir)
    cfg["data"].update(captions=captions, word_vectors=wv)
    cfg["feature_models"].append({"feature": "captions", "model": "gru"})
    cfg["output_dir"] = "out.csv"  # the path the test checks is not written
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return ["experiment", "--config", str(tmp_path / "config.json")]


@pytest.mark.parametrize("argv, message", [
    (_train_ridge_without_features, "ridge model requires --features"),
    (_train_gru_without_word_vectors, "gru model requires --captions and --word-vectors"),
    (_evaluate_one_common_id,
     "{tmp}/pred.csv: need at least 2 video ids in common with {synth}/labels_short.csv"),
    (_evaluate_no_common_id,
     "{tmp}/pred.csv: need at least 2 video ids in common with {synth}/labels_short.csv"),
    (_search_table_missing_ids,
     "table '{tmp}/half.csv' missing ids ['v0030', 'v0031', 'v0032', 'v0033', 'v0034']"),
    (_predict_narrow_features, "{tmp}/narrow.csv: expected 4 features, got 1"),
    (_predict_narrow_word_vectors, "{tmp}/wv.txt: expected a non-empty (steps, 4) array"),
    *[(argv, "{tmp}/captions.csv:2: caption '!!!' contains no tokens")
      for argv in (_train_caption_without_tokens, _predict_caption_without_tokens,
                   _experiment_caption_without_tokens)],
], ids=["ridge-without-features", "gru-without-word-vectors", "one-common-id", "no-common-id",
        "search-table-missing-ids", "predict-narrow-features", "predict-narrow-word-vectors",
        "train-caption-without-tokens", "predict-caption-without-tokens",
        "experiment-caption-without-tokens"])
def test_missing_cli_input_reported_as_error(synth_dir, tmp_path, capsys, argv, message):
    """The error names each file that is at fault."""
    assert main(argv(synth_dir, tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path, synth=synth_dir)}\n"
    assert not (tmp_path / "out.csv").exists()


_STANDARDIZER = {"means": [0.0, 0.0, 0.0, 0.0], "stds": [1.0, 1.0, 1.0, 1.0]}
_RIDGE_FILE = {"family": "linear", "kind": "ridge", "weights": [0.1, 0.2, 0.3, 0.4],
               "intercept": 0.5, "hyper": {"lam": 1.0}, "standardizer": _STANDARDIZER}
_SVR_FILE = {"family": "svr", "kernel": "rbf", "gamma": 0.25, "C": 1.0, "epsilon": 0.1,
             "support_vectors": [[0.1, 0.2, 0.3, 0.4]], "dual_coefs": [0.5], "bias": 0.1,
             "standardizer": _STANDARDIZER}
_GRU_FILE = model_to_dict(GruRegressor(input_dim=4, hidden_units=2, dense_widths=(1,), seed=0))


@pytest.mark.parametrize("doc, message", [
    ({}, "missing key 'family'"),
    ([1], "a model must be a JSON object"),
    ({k: v for k, v in _RIDGE_FILE.items() if k != "standardizer"},
     "missing key 'standardizer'"),
    ({**_GRU_FILE, "params": {k: v for k, v in _GRU_FILE["params"].items() if k != "Uz"}},
     "params: missing key 'Uz'"),
    ({**_GRU_FILE, "dense_widths": []}, "final dense width must be 1"),
    ({**_SVR_FILE, "support_vectors": [[0.1, 0.2, 0.3]]},
     "'support_vectors' has shape (1, 3), expected (1, 4)"),
    ({**_RIDGE_FILE, "weights": [0.1, 0.2, 0.3]}, "'weights' has shape (3,), expected (4,)"),
    ({**_RIDGE_FILE, "intercept": math.nan}, "'intercept' holds a non-finite number"),
    ({**_RIDGE_FILE, "weights": [0.1, math.inf, 0.3, 0.4]},
     "'weights' holds a non-finite number"),
    (json.dumps({**_GRU_FILE, "params": {**_GRU_FILE["params"], "db0": [12345.5]}})
     .replace("12345.5", "1e400"), "params: 'db0' holds a non-finite number"),
    ({**_SVR_FILE, "dual_coefs": [math.nan]}, "'dual_coefs' holds a non-finite number"),
    ({**_RIDGE_FILE, "intercept": "0.5"}, "'intercept' holds a non-numeric entry"),
    ({**_RIDGE_FILE, "weights": ["0.1", "0.2", "0.3", "0.4"]},
     "'weights' holds a non-numeric entry"),
    ({**_RIDGE_FILE, "weights": [0.1, True, 0.3, 0.4]}, "'weights' holds a non-numeric entry"),
    ({**_RIDGE_FILE, "standardizer": {**_STANDARDIZER, "stds": [1.0, 1.0, None, 1.0]}},
     "standardizer 'stds' holds a non-numeric entry"),
    ({**_SVR_FILE, "support_vectors": [[0.1, 0.2, 0.3, "0.4"]]},
     "'support_vectors' holds a non-numeric entry"),
    ({**_SVR_FILE, "bias": False}, "'bias' holds a non-numeric entry"),
    ({**_SVR_FILE, "gamma": "0.25"}, "'gamma' holds a non-numeric entry"),
    ({**_SVR_FILE, "C": "1.0"}, "'C' holds a non-numeric entry"),
    ({**_GRU_FILE, "params": {**_GRU_FILE["params"], "db0": ["0.0"]}},
     "params: 'db0' holds a non-numeric entry"),
    (json.dumps({**_RIDGE_FILE, "intercept": 12345}).replace("12345", "1" + "0" * 400),
     "'intercept' holds a non-finite number"),
    ({**_GRU_FILE, "input_dim": "4"}, "'input_dim' must be an integer >= 1"),
    ({**_GRU_FILE, "seed": "0"}, "'seed' must be an integer >= 0"),
    ({**_GRU_FILE, "seed": True}, "'seed' must be an integer >= 0"),
    ({**_GRU_FILE, "hidden_units": 2.0}, "'hidden_units' must be an integer >= 1"),
    ({**_GRU_FILE, "dense_widths": [1.0]}, "'dense_widths' must be a list of positive integers"),
    ({**_GRU_FILE, "dense_dropout_rate": False}, "'dense_dropout_rate' holds a non-numeric entry"),
    ({**_GRU_FILE, "training_log": "x"}, "'training_log' must be a list"),
    ({**_SVR_FILE, "gamma": -1.0}, "'gamma' must be > 0"),
    ({**_SVR_FILE, "gamma": 0.0}, "'gamma' must be > 0"),
    ({**_SVR_FILE, "C": -5.0}, "need C > 0 and epsilon >= 0"),
    ({**_SVR_FILE, "epsilon": -1.0}, "need C > 0 and epsilon >= 0"),
], ids=["empty-object", "not-object", "linear-without-standardizer", "gru-without-uz",
        "gru-without-dense-layers", "narrow-support-vector", "weights-width", "nan-intercept",
        "infinite-weight", "overflowing-gru-param", "nan-dual-coef", "string-intercept",
        "string-weights", "boolean-weight", "null-std", "string-support-vector",
        "boolean-bias", "string-gamma", "string-c", "string-gru-param", "overflowing-integer",
        "string-gru-input-dim", "string-gru-seed", "boolean-gru-seed", "float-gru-hidden-units",
        "float-gru-dense-width", "boolean-gru-dropout", "string-gru-training-log",
        "negative-svr-gamma", "zero-svr-gamma", "negative-svr-c", "negative-svr-epsilon"])
def test_malformed_model_file_rejected(synth_dir, tmp_path, capsys, doc, message):
    model = tmp_path / "m.json"
    model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["predict", "--model", str(model), "--features", str(synth_dir / "featA.csv"),
                 "--out", str(tmp_path / "pred.csv")]) == 1
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("v0000\na,b\n", "2: expected 1 fields, got 2"),
    ("v0000\nv0001 v0002\n", "2: invalid video id 'v0001 v0002'"),
    ("v0000\nv0001\nv0000\n", "3: duplicate video id 'v0000'"),
], ids=["comma", "space", "duplicate"])
def test_bad_prediction_ids_rejected(synth_dir, tmp_path, capsys, text, message):
    model, ids = tmp_path / "m.json", tmp_path / "ids.txt"
    model.write_text(json.dumps(_RIDGE_FILE))
    ids.write_text(text)
    assert main(["predict", "--model", str(model), "--features", str(synth_dir / "featA.csv"),
                 "--ids", str(ids), "--out", str(tmp_path / "pred.csv")]) == 1
    assert capsys.readouterr().err == f"error: {ids}:{message}\n"
    assert not (tmp_path / "pred.csv").exists()


def test_readme_lists_the_allowed_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    items = readme.split("allowed keys are:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [set(re.findall(r"`(\w+)`", item.split(": ", 1)[1]))
              for item in items.removeprefix("- ").split("\n- ")]
    assert listed == list(_CONFIG_KEYS.values())


@pytest.mark.parametrize("text, message", [
    ('{"n_video": 5}', "unknown key 'n_video'"),
    ("[1]", "spec must be a JSON object"),
    ('{"n_videos": "5"}', "'n_videos' must be an integer"),
    ('{"n_videos": 2.5}', "'n_videos' must be an integer"),
    ('{"n_videos": ', "Expecting value: line 1 column 14 (char 13)"),
    ('{"feature_dim": 0}', "need at least one feature dimension and one row per video"),
    ('{"rows_per_video": -1}', "need at least one feature dimension and one row per video"),
    ('{"true_alpha": NaN}', "'true_alpha' must be finite"),
    ('{"m_high": Infinity}', "'m_high' must be finite"),
    ('{"noise": -1}', "'noise' must be nonnegative"),
    ('{"target_duration": 0}', "'target_duration' must be positive"),
    ('{"obs_per_video": 0}', "need at least one video and one observation"),
    ('{"m_low": 0.9, "m_high": 0.3}', "memorability bounds must satisfy 0 <= low <= high <= 1"),
    ('{"delay_low": 0}', "delay bounds must be positive and ordered"),
    ('{"seed": -1}', "'seed' must be >= 0"),
], ids=["unknown-key", "not-object", "string-count", "float-count", "invalid-json",
        "zero-feature-dim", "negative-rows", "nan-alpha", "infinite-m-high", "negative-noise",
        "zero-target-duration", "zero-observations", "reversed-m-bounds", "zero-delay-low",
        "negative-seed"])
def test_bad_synth_spec_rejected(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {spec}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_synth_with_overflowing_label_noise(tmp_path, capsys):
    """Label noise that sends e**-s past the largest double writes the
    label 0.0 instead of ending in a traceback."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_videos": 20, "obs_per_video": 2, "noise": 1000}')
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert 0.0 in load_labels_csv(tmp_path / "out" / "labels_short.csv", "short").scores.values()


def test_bad_input_returns_error_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["adjust-labels", "--annotations", str(missing),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
