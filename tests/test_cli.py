import json

import pytest

from vidmem.cli import main


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


def test_train_predict_evaluate_round(synth_dir, tmp_path):
    model_path = tmp_path / "ridge.json"
    code = main(["train", "--features", str(synth_dir / "featA.csv"),
                 "--labels", str(synth_dir / "labels_short.csv"),
                 "--model", "ridge", "--params", '{"lam": 1.0}',
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


@pytest.mark.parametrize("edit, message", [
    (_drop_data, "missing 'data' object"),
    (_absent_feature, "feature_models[1]: feature set 'featZ' is not in data.features"),
    (_unknown_kind, "ensemble_models[0]: unknown model kind 'forest'"),
    (_gru_without_captions,
     "feature_models[1]: a gru model needs data.captions and data.word_vectors"),
    (_entry_without_model, "ensemble_models[0] needs 'feature' and 'model'"),
], ids=["no-data", "absent-feature", "unknown-kind", "gru-without-captions",
        "entry-without-model"])
def test_bad_experiment_config_rejected_before_training(synth_dir, tmp_path, capsys,
                                                        monkeypatch, edit, message):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite a bad config")

    monkeypatch.setattr("vidmem.harness.train_feature_model", no_training)
    cfg = _feature_only_config(synth_dir)
    edit(cfg)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_bad_input_returns_error_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["adjust-labels", "--annotations", str(missing),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
