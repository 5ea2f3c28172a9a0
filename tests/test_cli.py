import json

import pytest

from vidmem.cli import main
from vidmem.textmodel import TrainingDivergedError


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


@pytest.mark.parametrize("model, params", [("ridge", '{"lam": 1.0}'), ("bayes", "{}"),
                                           ("svr", '{"epsilon": 0.05}')],
                         ids=["ridge", "bayes", "svr"])
def test_train_predict_evaluate_round(synth_dir, tmp_path, model, params):
    model_path = tmp_path / f"{model}.json"
    code = main(["train", "--features", str(synth_dir / "featA.csv"),
                 "--labels", str(synth_dir / "labels_short.csv"),
                 "--model", model, "--params", params,
                 "--out", str(model_path)])
    assert code == 0

    pred_path = tmp_path / "pred.csv"
    code = main(["predict", "--model", str(model_path),
                 "--features", str(synth_dir / "featA.csv"),
                 "--out", str(pred_path)])
    assert code == 0
    assert len(pred_path.read_text().splitlines()) == 60

    code = main(["evaluate", "--pred", str(pred_path),
                 "--truth", str(synth_dir / "labels_short.csv")])
    assert code == 0


def test_evaluate_prints_srcc(synth_dir, tmp_path, capsys):
    # truth evaluated against itself has perfect rank correlation
    main(["evaluate", "--pred", str(synth_dir / "labels_short.csv"),
          "--truth", str(synth_dir / "labels_short.csv")])
    assert capsys.readouterr().out.strip() == "1.000000"


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


def test_gru_train_and_predict(synth_dir, tmp_path):
    import numpy as np
    words = set()
    for line in (synth_dir / "captions.csv").read_text().splitlines():
        words.update(line.split(",", 1)[1].strip('"').split())
    rng = np.random.default_rng(0)
    wv = tmp_path / "wv.txt"
    wv.write_text("\n".join(
        w + " " + " ".join(repr(float(x)) for x in rng.normal(size=4)) for w in words) + "\n")

    model_path = tmp_path / "gru.json"
    code = main(["train", "--captions", str(synth_dir / "captions.csv"),
                 "--word-vectors", str(wv),
                 "--labels", str(synth_dir / "labels_short.csv"),
                 "--model", "gru",
                 "--params", '{"hidden_units": 4, "max_epochs": 2}',
                 "--out", str(model_path)])
    assert code == 0

    pred_path = tmp_path / "gru_pred.csv"
    code = main(["predict", "--model", str(model_path),
                 "--captions", str(synth_dir / "captions.csv"),
                 "--word-vectors", str(wv), "--out", str(pred_path)])
    assert code == 0
    assert len(pred_path.read_text().splitlines()) == 60


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


def _seeds_not_list(cfg):
    cfg["seeds"] = 3


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
    (_seeds_not_list, "'seeds' must be a non-empty list of integers"),
    (_setting("bucket", "x"), "'bucket' must be a number"),
    (_setting("bucket", 0.3), "1/bucket must be an integer, got 3.3333333333333335"),
    (_setting("bucket", 0), "bucket must lie in (0, 1], got 0"),
    (_setting("train_fraction", "x"), "'train_fraction' must be a number"),
    (_setting("train_fraction", 1.5), "train fraction must lie in (0, 1)"),
    (_setting("aggregation", "mode"), "unknown aggregation 'mode'"),
    (_setting("workers", 1.5), "'workers' must be an integer"),
    (_setting("workers", "2"), "'workers' must be an integer"),
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
    (_setting("data", "captions", 5), "data.captions must be a path string"),
    (_setting("output_dir", 3), "output_dir must be a path string"),
    (_setting("data", "labels", ["labels_short.csv"]),
     "data.labels must map terms to path strings"),
    (_setting("test_labels", ["labels_short.csv"]), "test_labels must map terms to path strings"),
    (_setting("data", "labels", {"medium": "labels_short.csv"}),
     "data.labels: term must be one of ('short', 'long'), got 'medium'"),
    (_setting("feature_models", 3), "'feature_models' must be a list"),
    (_setting("seed", [0]), "unknown key 'seed'"),
    (_setting("data", "feature", []), "data: unknown key 'feature'"),
    (_setting("data", "features", 0, "dim", 4), "data.features[0]: unknown key 'dim'"),
    (_setting("feature_models", 0, "hyperr", {"lam": 50}),
     "feature_models[0]: unknown key 'hyperr'"),
    (_setting("ensemble_models", [{"feature": "featA", "model": "ridge", "seeds": [0]}]),
     "ensemble_models[0]: unknown key 'seeds'"),
], ids=["no-data", "absent-feature", "unknown-kind", "gru-without-captions",
        "entry-without-model", "hyper-not-object", "seeds-not-list", "bucket-not-number",
        "bucket-not-reciprocal", "bucket-zero", "train-fraction-not-number",
        "train-fraction-out-of-range", "unknown-aggregation", "workers-float",
        "workers-string", "unknown-feature-model-key", "unknown-ensemble-model-key",
        "model-not-string", "feature-not-string", "feature-name-not-string",
        "feature-path-not-string", "unknown-modality", "captions-not-string",
        "output-dir-not-string", "labels-not-object", "test-labels-not-object",
        "unknown-label-term", "models-not-list", "unknown-top-key", "unknown-data-key",
        "unknown-feature-set-key", "unknown-feature-model-entry-key",
        "unknown-ensemble-model-entry-key"])
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
], ids=["params-not-object", "unknown-svr-key", "unknown-gru-key", "unknown-ridge-key",
        "unknown-ols-key", "params-not-json"])
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


@pytest.mark.parametrize("line, message", [("v0001", "expected 2 or 3 fields, got 1"),
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


def test_prediction_csv_scores_outside_unit_interval_accepted(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("v0000,-3.0\nv0001,7.5,direct\n")
    assert main(["evaluate", "--pred", str(pred), "--truth", str(pred)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


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


@pytest.mark.parametrize("argv, message", [
    (_train_ridge_without_features, "ridge model requires --features"),
    (_train_gru_without_word_vectors, "gru model requires --captions and --word-vectors"),
    (_evaluate_one_common_id, "need at least 2 common video ids"),
], ids=["ridge-without-features", "gru-without-word-vectors", "one-common-id"])
def test_missing_cli_input_reported_as_error(synth_dir, tmp_path, capsys, argv, message):
    assert main(argv(synth_dir, tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
], ids=["unknown-key", "not-object", "string-count", "float-count", "invalid-json",
        "zero-feature-dim", "negative-rows", "nan-alpha", "infinite-m-high", "negative-noise",
        "zero-target-duration"])
def test_bad_synth_spec_rejected(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {spec}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_bad_input_returns_error_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["adjust-labels", "--annotations", str(missing),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
