import json
import math
import re
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from settings_cases import BAD_SETTINGS
from vidmem import harness
from vidmem.corpus import CaptionSet, Corpus, FeatureSet, LabelTable, WordVectorTable, tokenize
from vidmem.harness import (DEFAULT_SEEDS, FeatureModelConfig, SyntheticCorpusSpec,
                            generate_synthetic, predict_table, report_to_json,
                            report_to_text, run_ensemble_experiment,
                            run_feature_experiment, run_full_experiment, split,
                            train_feature_model)


class TestSplit:
    def test_590_ids_give_472_118(self):
        ids = [f"v{i}" for i in range(590)]
        sp = split(ids, seed=0)
        assert len(sp.train_ids) == 472
        assert len(sp.valid_ids) == 118

    def test_deterministic(self):
        ids = [f"v{i}" for i in range(100)]
        assert split(ids, seed=3) == split(ids, seed=3)

    def test_partition(self):
        ids = [f"v{i}" for i in range(101)]
        for seed in (0, 1):
            sp = split(ids, seed=seed)
            assert set(sp.train_ids) | set(sp.valid_ids) == set(ids)
            assert not set(sp.train_ids) & set(sp.valid_ids)
        assert split(ids, 0).train_ids != split(ids, 1).train_ids

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(["a", "b"], 0, train_fraction=1.0)


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SyntheticCorpusSpec(n_videos=20, obs_per_video=5, seed=4))
        b = generate_synthetic(SyntheticCorpusSpec(n_videos=20, obs_per_video=5, seed=4))
        assert a.true_m == b.true_m
        np.testing.assert_array_equal(a.corpus.features["featA"].rows["v0000"],
                                      b.corpus.features["featA"].rows["v0000"])
        assert a.corpus.labels["short"].scores == b.corpus.labels["short"].scores
        assert a.corpus.captions.captions == b.corpus.captions.captions

    def test_noiseless_label_link_exact(self):
        synth = generate_synthetic(SyntheticCorpusSpec(n_videos=10, obs_per_video=3,
                                                       noise=0.0, seed=5))
        fs = synth.corpus.features["featA"]
        for vid, score in synth.corpus.labels["short"].scores.items():
            expected = 1.0 / (1.0 + math.exp(-float(fs.rows[vid].mean())))
            assert score == expected

    def test_observation_count(self):
        synth = generate_synthetic(SyntheticCorpusSpec(n_videos=7, obs_per_video=9, seed=6))
        log = synth.corpus.annotations["short"]
        assert all(len(obs) == 9 for obs in log.entries.values())

    def test_label_squash_overflow_gives_zero(self):
        """A noise draw that sends e**-s past the largest double gives the
        squash's limit 0.0; every other label keeps libm's bits."""
        assert harness._squash(-710.0) == 0.0
        assert harness._squash(-709.0) == 1.0 / (1.0 + math.exp(709.0)) > 0.0
        assert harness._squash(1e308) == 1.0
        scores = generate_synthetic(SyntheticCorpusSpec(n_videos=50, obs_per_video=2,
                                                        noise=1000.0)).corpus.labels["short"].scores
        assert 0.0 in scores.values() and all(0.0 <= s <= 1.0 for s in scores.values())

    @pytest.mark.parametrize("spec, recognized", [
        ({"target_duration": 1e-320}, 0),  # t/T overflows: log(t/T) is +inf, p clamps to 0
        ({"delay_low": 1e-300, "delay_high": 1e-300, "target_duration": 1e300}, 1),  # t/T is 0
    ], ids=["ratio-overflows", "ratio-underflows"])
    def test_extreme_target_duration_without_warnings(self, spec, recognized):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = generate_synthetic(SyntheticCorpusSpec(n_videos=5, obs_per_video=4, **spec)
                                     ).corpus.annotations["short"]
        assert np.all(log.recognized == recognized)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^'seed' must be >= 0$"):
            SyntheticCorpusSpec(seed=-1)

    def test_captions_match_one_integers_call_per_draw(self):
        """300 random small specs: the captions equal those of the per-call
        loop, kept here as the oracle."""
        rng = np.random.default_rng(2027)
        for _ in range(300):
            spec = SyntheticCorpusSpec(
                n_videos=int(rng.integers(1, 61)), obs_per_video=int(rng.integers(1, 6)),
                feature_dim=int(rng.integers(1, 5)), rows_per_video=int(rng.integers(1, 4)),
                noise=float(rng.choice([0.0, 0.1])), seed=int(rng.integers(0, 1 << 31)))
            assert generate_synthetic(spec).corpus.captions.captions == _per_call_captions(spec)


def _per_call_captions(spec):
    """The captions of `generate_synthetic(spec)`, drawn after the same
    earlier draws with one `rng.integers` call per draw."""
    n, k = spec.n_videos, spec.rows_per_video * spec.feature_dim
    rng = np.random.default_rng(spec.seed)
    rng.uniform(size=n)
    rng.random((n, 2 * spec.obs_per_video))
    rng.normal(size=(n, 2 * k + (spec.noise > 0.0)))
    captions = {}
    for i in range(n):
        caps = []
        for _ in range(int(rng.integers(2, 6))):
            words = rng.integers(0, len(harness._CAPTION_WORDS), size=int(rng.integers(3, 8)))
            caps.append("a video of " + " ".join(harness._CAPTION_WORDS[w]
                                                 for w in words.tolist()))
        captions[f"v{i:04d}"] = tuple(caps)
    return captions


def _stream_near_zero_word(outputs_before):
    """default_rng(12345) with its 32-bit word 206447234, u = 0, lying
    2 * `outputs_before` words ahead (each 64-bit output is two words)."""
    rng = np.random.default_rng(12345)
    rng.bit_generator.advance(103223617 - outputs_before)
    return rng


def test_draw_skips_words_as_numpy_does():
    """u = 0 gives a low half of 0, below 2**32 % n for n = 5 and 10, so
    numpy skips it; `_draw` must too, in a scalar and in a vector draw."""
    words = harness._words(_stream_near_zero_word(0))
    assert 3 + harness._draw(words, 5) == _stream_near_zero_word(0).integers(3, 8)
    first = _stream_near_zero_word(1).integers(0, 1 << 32, size=6, dtype=np.uint32).tolist()
    assert first[2] == 0  # the vector draw below spans the skipped word
    words = harness._words(_stream_near_zero_word(1))
    expected = _stream_near_zero_word(1).integers(0, 10, size=6).tolist()
    assert [harness._draw(words, 10) for _ in range(6)] == expected
    assert expected != [u * 10 >> 32 for u in first]  # reading every word would differ


@pytest.fixture(scope="module")
def small_corpus():
    spec = SyntheticCorpusSpec(n_videos=60, obs_per_video=5, feature_dim=4,
                               rows_per_video=2, seed=7)
    return generate_synthetic(spec).corpus


CONFIGS = [FeatureModelConfig("featA", "ridge", {"lam": 1.0}),
           FeatureModelConfig("featB", "ridge", {"lam": 1.0})]


class TestFeatureExperiment:
    def test_row_schema_and_informative_feature_wins(self, small_corpus):
        report = run_feature_experiment(small_corpus, CONFIGS, seeds=[0, 1, 2])
        assert report["kind"] == "feature_experiment"
        row = report["rows"][0]
        assert row["feature"] == "featA"
        for term in ("short", "long"):
            stats = row["terms"][term]
            assert len(stats["per_seed"]) == 3
            # mean/variance recomputable from the stored per-seed list
            assert abs(stats["mean"] - np.mean(stats["per_seed"])) <= 1e-12
            assert abs(stats["variance"] - np.var(stats["per_seed"])) <= 1e-12
        assert row["terms"]["short"]["mean"] >= 0.9
        assert report["best_per_modality"]["short"]["video"]["feature"] == "featA"

    def test_single_seed_zero_variance(self, small_corpus):
        report = run_feature_experiment(small_corpus, CONFIGS[:1], seeds=[0])
        assert report["rows"][0]["terms"]["short"]["variance"] == 0.0

    def test_failed_row_recorded_not_fatal(self, small_corpus):
        configs = CONFIGS[:1] + [FeatureModelConfig("missing", "ridge", {})]
        report = run_feature_experiment(small_corpus, configs, seeds=[0])
        assert report["rows"][0]["error"] is None
        assert report["rows"][1]["error"] == "feature set 'missing' is not in the corpus"


class TestEnsembleExperiment:
    def test_single_model_weight_one(self, small_corpus):
        report = run_ensemble_experiment(small_corpus, CONFIGS[:1], seeds=[0])
        for row in report["rows"]:
            assert row["weights"] == [1.0]

    def test_known_optimum_recovered(self):
        # predictions constructed directly: truth = 0.5*modelA + 0.5*modelB
        from vidmem.aggregate import PredictionTable
        from vidmem.corpus import LabelTable
        from vidmem.ensemble import grid_search
        rng = np.random.default_rng(8)
        ids = [f"v{i}" for i in range(40)]
        a = dict(zip(ids, rng.random(40)))
        b = dict(zip(ids, rng.random(40)))
        c = dict(zip(ids, rng.random(40)))
        d = dict(zip(ids, rng.random(40)))
        truth = LabelTable("short", {v: 0.5 * a[v] + 0.5 * b[v] for v in ids})
        tables = [PredictionTable(n, s, {v: "direct" for v in ids})
                  for n, s in (("A", a), ("B", b), ("C", c), ("D", d))]
        w = grid_search(tables, truth, bucket=0.05)
        assert abs(w.weights[0] - 0.5) <= 0.05
        assert abs(w.weights[1] - 0.5) <= 0.05

    def test_test_labels_scored(self, small_corpus):
        test_tab = {"short": small_corpus.labels["short"],
                    "long": small_corpus.labels["long"]}
        report = run_ensemble_experiment(small_corpus, CONFIGS, seeds=[0],
                                         test_labels=test_tab)
        for row in report["rows"]:
            assert row["test_srcc"] is not None


class TestTrainOnce:
    def test_each_fit_trained_once(self, small_corpus, monkeypatch):
        calls = []
        original = harness.train_feature_model

        def counting(corpus, config, labels, train_ids, seed):
            calls.append((config.display_name, seed, labels.term))
            return original(corpus, config, labels, train_ids, seed)

        monkeypatch.setattr(harness, "train_feature_model", counting)
        run_full_experiment(small_corpus, CONFIGS, CONFIGS[:1], seeds=[0, 1], workers=2)
        assert len(calls) == len(set(calls)) == len(CONFIGS) * 2 * 2

    def test_fits_run_one_at_a_time(self, small_corpus, monkeypatch):
        calls, active, most = [], [0], [0]
        lock = threading.Lock()
        original = harness.train_feature_model

        def overlapping(corpus, config, labels, train_ids, seed):
            with lock:
                calls.append((config.display_name, seed, labels.term))
                active[0] += 1
                most[0] = max(most[0], active[0])
            time.sleep(0.005)  # long enough for a second pool thread to start a fit
            try:
                return original(corpus, config, labels, train_ids, seed)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(harness, "train_feature_model", overlapping)
        run_full_experiment(small_corpus, CONFIGS, CONFIGS[:1], seeds=[0, 1], workers=2)
        assert most[0] == 1
        assert calls == [(config.display_name, seed, term) for config in CONFIGS
                         for seed in (0, 1) for term in sorted(small_corpus.labels)]

    def test_each_seed_split_once(self, small_corpus, monkeypatch):
        seeds = []
        original = harness.split

        def counting(ids, seed, train_fraction=0.8):
            seeds.append(seed)
            return original(ids, seed, train_fraction)

        monkeypatch.setattr(harness, "split", counting)
        run_full_experiment(small_corpus, CONFIGS, CONFIGS[:1], seeds=[0, 1],
                            test_labels=dict(small_corpus.labels))
        assert seeds == [0, 1]

    def test_full_report_equals_separate_reports(self, small_corpus):
        test_tab = dict(small_corpus.labels)
        full = run_full_experiment(small_corpus, CONFIGS, CONFIGS[::-1], seeds=[0, 1],
                                   test_labels=test_tab)
        assert full["features"] == run_feature_experiment(small_corpus, CONFIGS, seeds=[0, 1])
        assert full["ensemble"] == run_ensemble_experiment(small_corpus, CONFIGS[::-1],
                                                           seeds=[0, 1], test_labels=test_tab)

    def test_failures_reported_as_before(self, small_corpus):
        ids = small_corpus.video_ids
        short = small_corpus.labels["short"]
        # long labels only on seed 0's validation ids: fitting fails on that term
        unfit = {"short": short, "long": LabelTable(
            "long", {v: short.scores[v] for v in split(ids, 0).valid_ids})}
        # constant long labels: the fit succeeds, SRCC is undefined
        constant = {"short": short, "long": LabelTable("long", {v: 0.5 for v in ids})}
        for labels, error in ((unfit, "no training rows for feature 'featA'"),
                              (constant, "constant input: rank correlation undefined")):
            corpus = Corpus(features=small_corpus.features, labels=labels)
            report = run_feature_experiment(corpus, CONFIGS[:1], seeds=[0, 1])
            assert report["rows"][0]["error"] == error
        with pytest.raises(ValueError, match="feature set 'missing' is not in the corpus"):
            run_full_experiment(small_corpus, CONFIGS, CONFIGS[:1] + [
                FeatureModelConfig("missing", "ridge")], seeds=[0])


_EXPERIMENTS = {
    "feature": lambda corpus, settings: run_feature_experiment(corpus, CONFIGS, **settings),
    "ensemble": lambda corpus, settings: run_ensemble_experiment(corpus, CONFIGS, **settings),
    "full": lambda corpus, settings: run_full_experiment(corpus, CONFIGS, CONFIGS, **settings),
}


@pytest.mark.parametrize("experiment", list(_EXPERIMENTS))
@pytest.mark.parametrize("case", list(BAD_SETTINGS))
def test_bad_settings_rejected_before_any_split_or_fit(small_corpus, monkeypatch, case,
                                                       experiment):
    """The library rejects what `vidmem experiment` rejects, with its text,
    with and without ensemble configs."""
    calls = []
    monkeypatch.setattr(harness, "split", lambda *args: calls.append("split"))
    monkeypatch.setattr(harness, "train_feature_model", lambda *args: calls.append("fit"))
    settings, message = BAD_SETTINGS[case]
    with pytest.raises(ValueError) as info:
        _EXPERIMENTS[experiment](small_corpus, settings)
    assert (str(info.value), calls) == (message, [])


@pytest.mark.parametrize("experiment", list(_EXPERIMENTS))
def test_corpus_without_labels_rejected_before_any_split_or_fit(small_corpus, monkeypatch,
                                                                experiment):
    calls = []
    monkeypatch.setattr(harness, "split", lambda *args: calls.append("split"))
    monkeypatch.setattr(harness, "train_feature_model", lambda *args: calls.append("fit"))
    corpus = Corpus(features=small_corpus.features, captions=small_corpus.captions)
    with pytest.raises(ValueError, match="^the corpus has no label terms to fit$"):
        _EXPERIMENTS[experiment](corpus, {})
    assert calls == []


def test_untrained_test_term_rejected_before_any_split_or_fit(small_corpus, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "split", lambda *args: calls.append("split"))
    monkeypatch.setattr(harness, "train_feature_model", lambda *args: calls.append("fit"))
    corpus = Corpus(features=small_corpus.features, labels={"short": small_corpus.labels["short"]})
    with pytest.raises(ValueError, match="^test_labels: term 'long' is not in the corpus labels$"):
        run_full_experiment(corpus, CONFIGS, CONFIGS, {"long": small_corpus.labels["long"]})
    assert calls == []


def test_default_seeds_reported_as_a_list(small_corpus):
    report = run_full_experiment(small_corpus, CONFIGS[:1], CONFIGS[:1])
    assert report["features"]["seeds"] == report["ensemble"]["seeds"] == list(DEFAULT_SEEDS)
    assert json.loads(report_to_json(report)) == report  # a tuple would read back unequal


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, small_corpus):
        reports = [run_full_experiment(small_corpus, CONFIGS, CONFIGS,
                                       seeds=[0, 1], workers=w)
                   for w in (1, 1, 4)]
        texts = [report_to_json(r) for r in reports]
        assert texts[0] == texts[1] == texts[2]


PINNED_CONFIGS = [FeatureModelConfig("featA", "ols"),
                  FeatureModelConfig("featA", "ridge", {"lam": 1.0}),
                  FeatureModelConfig("featA", "lasso", {"lam": 0.001}),
                  FeatureModelConfig("featA", "bayes_ridge"),
                  FeatureModelConfig("featB", "svr", {"epsilon": 0.05})]


def _pinned_corpus():
    return generate_synthetic(SyntheticCorpusSpec(n_videos=40, obs_per_video=2, feature_dim=4,
                                                  rows_per_video=3, noise=0.5, seed=11)).corpus


def _pinned_report():
    """Both protocols on three rows per video, every linear kind and SVR, two
    seeds, with test labels."""
    corpus = _pinned_corpus()
    return report_to_json(run_full_experiment(corpus, PINNED_CONFIGS, PINNED_CONFIGS[1:],
                                              seeds=[0, 1], test_labels=dict(corpus.labels)))


def _pinned_predictions():
    """Every video's raw score from each fit behind `_pinned_report`.  The
    report holds only rank statistics, which last-bit drift rarely moves;
    these scores carry the bits."""
    corpus = _pinned_corpus()
    scores = {}
    for config in PINNED_CONFIGS:
        for seed in (0, 1):
            for term in ("long", "short"):
                labels = corpus.labels[term]
                model = train_feature_model(corpus, config, labels,
                                            split(corpus.video_ids, seed).train_ids, seed)
                table = predict_table(corpus, config, model, corpus.video_ids)
                scores[f"{config.display_name}:{seed}:{term}"] = table.scores
    return json.dumps(scores, indent=1) + "\n"


PINNED_GRU = FeatureModelConfig("captions", "gru", {"hidden_units": 3, "dense_widths": [2, 1],
                                                   "max_epochs": 3, "batch_size": 16})


def _pinned_gru_predictions():
    """Every video's raw score and coverage, and the training log, of a small
    caption GRU per seed and term.  Every seventh video has no captions (it
    is skipped in training and falls back in prediction), and one word has
    no vector (it embeds as zeros)."""
    base = _pinned_corpus()
    captions = {vid: caps for i, (vid, caps) in enumerate(base.captions.captions.items())
                if i % 7}
    words = sorted({w for caps in captions.values() for c in caps for w in tokenize(c)}
                   - {"ball"})
    vectors = np.random.default_rng(12).normal(size=(len(words), 3))
    corpus = Corpus(captions=CaptionSet(captions),
                    word_vectors=WordVectorTable(3, dict(zip(words, vectors))),
                    labels=base.labels)
    out = {}
    for seed in (0, 1):
        for term in ("long", "short"):
            model = train_feature_model(corpus, PINNED_GRU, corpus.labels[term],
                                        split(corpus.video_ids, seed).train_ids, seed)
            table = predict_table(corpus, PINNED_GRU, model, corpus.video_ids)
            out[f"{seed}:{term}"] = {"scores": table.scores, "coverage": table.coverage,
                                     "training_log": model.training_log}
    return json.dumps(out, indent=1) + "\n"


RAGGED_CONFIGS = [FeatureModelConfig("feat", "ols"),
                  FeatureModelConfig("feat", "ridge", {"lam": 1.0}),
                  FeatureModelConfig("feat", "lasso", {"lam": 0.01}),
                  FeatureModelConfig("feat", "bayes_ridge"),
                  FeatureModelConfig("feat", "svr", {"kernel": "rbf", "epsilon": 0.05}),
                  FeatureModelConfig("feat", "svr", {"kernel": "linear", "epsilon": 0.05}),
                  FeatureModelConfig("feat", "svr", {"epsilon": 10.0})]  # no support vectors


def _pinned_ragged_predictions():
    """Every video's raw score and coverage from each linear kind and SVR
    under every aggregation, on 1-5 feature rows per video stored in
    shuffled order; every sixth video has no rows and falls back."""
    rng = np.random.default_rng(13)
    vids = [f"v{i:03d}" for i in range(60)]
    covered = [vid for i, vid in enumerate(vids) if i % 6 != 5]
    row_ids = [vid for vid, n in zip(covered, rng.integers(1, 6, len(covered)))
               for _ in range(n)]
    row_ids = [row_ids[i] for i in rng.permutation(len(row_ids))]
    features = FeatureSet("video", "feat", row_ids, rng.normal(size=(len(row_ids), 4)))
    scores = {vid: 1.0 / (1.0 + math.exp(-float(rows.sum(axis=0) @ [1.0, -0.5, 0.25, 0.0])))
              for vid, rows in features.rows.items()}
    scores.update({vid: float(rng.uniform()) for vid in vids if vid not in scores})
    corpus = Corpus(features={"feat": features}, labels={"short": LabelTable("short", scores)})
    out = {}
    for config in RAGGED_CONFIGS:
        model = train_feature_model(corpus, config, corpus.labels["short"],
                                    split(vids, 0).train_ids, 0)
        for aggregation in ("median", "mean", "max", "min"):
            table = predict_table(corpus, config, model, vids, aggregation)
            key = f"{config.model}:{json.dumps(config.hyper, sort_keys=True)}:{aggregation}"
            out[key] = {"scores": table.scores, "coverage": table.coverage}
    return json.dumps(out, indent=1) + "\n"


@pytest.mark.parametrize("make, name", [(_pinned_report, "report"),
                                        (_pinned_predictions, "predictions"),
                                        (_pinned_gru_predictions, "gru_predictions"),
                                        (_pinned_ragged_predictions, "ragged_predictions")],
                         ids=["report", "predictions", "gru-predictions", "ragged-predictions"])
def test_experiment_bytes_match_recording(make, name):
    """Training rows are stacked in split order and each video is predicted
    on its own rows or captions; a change to either moves these bytes."""
    recorded = (Path(__file__).parent / "data" / f"experiment_parent_{name}.json").read_text()
    assert make() == recorded


def test_training_rows_gathered_as_stacked(monkeypatch):
    """A feature model trains on each video's row block stacked in training
    id order and each label repeated over its video's rows, the bytes that
    `np.vstack` and `np.repeat` of per-video dicts give; on ragged
    interleaved rows, ids without rows or labels, and a repeated id."""
    fitted = []
    monkeypatch.setattr(harness, "fit_linear", lambda X, y, **_: fitted.append((X, y)))
    rng = np.random.default_rng(7)
    for case in range(50):
        vids = [f"v{i:03d}" for i in range(int(rng.integers(2, 40)))]
        counts = rng.integers(0, 6, len(vids))
        counts[-1] += 1  # a labelled video with rows
        row_ids = [vid for vid, n in zip(vids, counts) for _ in range(n)]
        row_ids = [row_ids[i] for i in rng.permutation(len(row_ids))]
        features = FeatureSet("video", "feat", row_ids, rng.normal(size=(len(row_ids), 3)))
        labels = LabelTable("short", {vid: float(rng.uniform()) for vid in vids[1:]})
        corpus = Corpus(features={"feat": features}, labels={"short": labels})
        train_ids = [vids[i] for i in rng.permutation(len(vids))] + ["absent", vids[-1]]
        train_feature_model(corpus, FeatureModelConfig("feat", "ols"), labels, train_ids, 0)
        rows = {vid: features.rows[vid] for vid in train_ids
                if vid in labels.scores and vid in features.rows}
        X, y = fitted.pop()
        expected_X = np.vstack(list(rows.values()))
        expected_y = np.repeat([labels.scores[vid] for vid in rows], [len(r) for r in rows.values()])
        assert X.shape == expected_X.shape and X.tobytes() == expected_X.tobytes()
        assert y.shape == expected_y.shape and y.tobytes() == expected_y.tobytes()


def test_experiment_builds_no_per_video_rows():
    corpus = _pinned_corpus()
    run_full_experiment(corpus, PINNED_CONFIGS, PINNED_CONFIGS[1:], seeds=[0],
                        test_labels=dict(corpus.labels))
    assert [name for name, fs in corpus.features.items() if "rows" in fs.__dict__] == []


class TestReportRendering:
    def test_text_report_has_table_headers(self, small_corpus):
        report = run_full_experiment(small_corpus, CONFIGS, CONFIGS, seeds=[0])
        text = report_to_text(report)
        assert "Mean (ST)" in text and "Variance (LT)" in text
        assert "Valid" in text and "Test" in text

    def test_failed_row_rendered_as_error(self, small_corpus):
        configs = CONFIGS[:1] + [FeatureModelConfig("missing", "ridge", {})]
        text = report_to_text(run_full_experiment(small_corpus, configs, [], seeds=[0]))
        assert re.search(r"^missing +ridge +ERROR: feature set 'missing' is not in the corpus$",
                         text, re.M)

    def test_json_round_trip(self, small_corpus):
        report = run_feature_experiment(small_corpus, CONFIGS[:1], seeds=[0])
        assert json.loads(report_to_json(report)) == report


@pytest.mark.parametrize("args, message", [
    (("featA", "forest"), "unknown model kind 'forest'"),
    (("featA", "ridge", {"lamda": 50}), "unknown ridge hyperparameter 'lamda'"),
    (("featA", "ridge", [1]), "'hyper' must be a JSON object"),
    (("featA", "gru"), "a gru model reads 'captions', not 'featA'"),
    (("featA", "svr", {"C": True}), "svr hyperparameter 'C' must be a number"),
    (("featA", "svr", {"C": 10 ** 400}), "svr hyperparameter 'C' must be a number"),
    (("captions", "gru", {"hidden_units": 0}), "'hidden_units' must be an integer >= 1"),
    (("captions", "gru", {"dense_widths": [4, 0, 1]}),
     "'dense_widths' must be a list of positive integers"),
    (("captions", "gru", {"dense_widths": [4, 2]}), "final dense width must be 1"),
    (("captions", "gru", {"dense_dropout_rate": 1.0}), "dropout rates must lie in [0, 1)"),
    (("captions", "gru", {"recurrent_dropout_rate": -0.5, "batch_size": 0}),
     "'batch_size' must be an integer >= 1"),
], ids=["unknown-kind", "unknown-key", "hyper-not-dict", "gru-on-features", "boolean-c",
        "c-beyond-float-range", "gru-no-hidden-units", "gru-zero-width", "gru-final-width",
        "gru-dropout-one", "gru-train-setting-checked-first"])
def test_feature_model_config_rejects_invalid_entry(args, message):
    with pytest.raises(ValueError) as info:
        FeatureModelConfig(*args)
    assert str(info.value) == message


class TestSvrAndGruPaths:
    def test_svr_feature_model(self, small_corpus):
        cfg = FeatureModelConfig("featA", "svr", {"epsilon": 0.05})
        labels = small_corpus.labels["short"]
        sp = split(small_corpus.video_ids, 0)
        model = train_feature_model(small_corpus, cfg, labels, sp.train_ids, 0)
        table = predict_table(small_corpus, cfg, model, sp.valid_ids)
        assert set(table.scores) == set(sp.valid_ids)

    def test_gru_without_word_vectors_rejected(self, small_corpus):
        cfg = FeatureModelConfig("captions", "gru")
        message = "gru model needs captions and word vectors in the corpus"
        with pytest.raises(ValueError, match=message):
            train_feature_model(small_corpus, cfg, small_corpus.labels["short"],
                                small_corpus.video_ids, 0)
        with pytest.raises(ValueError, match=message):
            predict_table(small_corpus, cfg, None, small_corpus.video_ids)

    def test_gru_without_training_captions_rejected(self, small_corpus):
        corpus = Corpus(captions=CaptionSet({"other": ("a dog",)}),
                        word_vectors=WordVectorTable(2, {}))
        with pytest.raises(ValueError, match="^no caption samples in the training split$"):
            train_feature_model(corpus, FeatureModelConfig("captions", "gru"),
                                small_corpus.labels["short"], small_corpus.video_ids, 0)

    def test_gru_feature_model(self, small_corpus):
        rng = np.random.default_rng(9)
        tokens = {"a", "video", "of"}
        for caps in small_corpus.captions.captions.values():
            for cap in caps:
                tokens.update(cap.split())
        corpus = Corpus(features=small_corpus.features,
                        captions=small_corpus.captions,
                        word_vectors=WordVectorTable(
                            dimension=4,
                            vectors={t: rng.normal(size=4) for t in tokens}),
                        labels=small_corpus.labels)
        cfg = FeatureModelConfig("captions", "gru",
                                 {"hidden_units": 4, "max_epochs": 2, "batch_size": 32,
                                  "recurrent_dropout_rate": 0.0, "dense_dropout_rate": 0.0})
        sp = split(corpus.video_ids, 0)
        labels = corpus.labels["short"]
        model = train_feature_model(corpus, cfg, labels, sp.train_ids, 0)
        table = predict_table(corpus, cfg, model, sp.valid_ids)
        assert set(table.scores) == set(sp.valid_ids)
