import json
import string
import warnings
from pathlib import Path

import numpy as np
import pytest

from vidmem.corpus import TokenizeError, WordVectorTable, tokenize
from vidmem.regress import model_from_dict, model_to_dict
from vidmem.textmodel import (GruRegressor, TrainingDivergedError, _param_views, _sigmoid, embed,
                              gru_train)


class TestTokenize:
    def test_basic(self):
        assert tokenize("A man runs.") == ["a", "man", "runs"]

    def test_case_and_punctuation_folding(self):
        assert tokenize("dog,  DOG!") == ["dog", "dog"]

    def test_deletes_exactly_ascii_punctuation(self):
        text = string.punctuation + "".join(map(chr, range(32, 0x3000, 7)))
        expected = text.lower().translate(str.maketrans("", "", string.punctuation)).split()
        assert tokenize(text) == expected

    def test_all_punctuation_rejected(self):
        with pytest.raises(TokenizeError):
            tokenize("!!!")

    def test_empty_rejected(self):
        with pytest.raises(TokenizeError):
            tokenize("   ")


class TestEmbed:
    @pytest.fixture
    def table(self):
        return WordVectorTable(dimension=3, vectors={
            "the": np.array([1.0, 2.0, 3.0]),
            "dog": np.array([0.5, 0.5, 0.5]),
        })

    def test_known_token(self, table):
        np.testing.assert_array_equal(embed(["the"], table), [[1.0, 2.0, 3.0]])

    def test_unknown_token_zero_vector(self, table):
        np.testing.assert_array_equal(embed(["zzzqqq"], table), [[0.0, 0.0, 0.0]])

    def test_mixed(self, table):
        vectors = embed(["the", "dog", "xx", "yy", "dog"], table)
        assert vectors.shape == (5, 3)
        np.testing.assert_array_equal(vectors[2:4], np.zeros((2, 3)))


def small_model(**kw):
    defaults = dict(input_dim=5, hidden_units=4, dense_widths=(3, 2, 2, 1),
                    recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=7)
    defaults.update(kw)
    return GruRegressor(**defaults)


class TestGruSettings:
    def test_training_settings_are_keywords(self):
        model = small_model(learning_rate=0.5, batch_size=3, max_epochs=2, patience=1,
                            validation_fraction=0.0)
        assert (model.learning_rate, model.batch_size, model.max_epochs, model.patience,
                model.validation_fraction) == (0.5, 3, 2, 1, 0.0)

    @pytest.mark.parametrize("setting, message", [
        ({"learning_rate": 0.0}, "'learning_rate' must be > 0"),
        ({"batch_size": 0}, "'batch_size' must be an integer >= 1"),
        ({"max_epochs": 1.0}, "'max_epochs' must be an integer >= 1"),
        ({"patience": 0}, "'patience' must be an integer >= 1"),
        ({"validation_fraction": 1.0}, "'validation_fraction' must lie in [0, 1)"),
    ], ids=["learning-rate", "batch-size", "max-epochs", "patience", "validation-fraction"])
    def test_bad_training_setting_reported_before_architecture(self, setting, message):
        with pytest.raises(ValueError) as info:
            small_model(input_dim=0, **setting)
        assert str(info.value) == message

    def test_params_are_views_of_one_vector(self):
        samples = make_samples(np.random.default_rng(4), 6, 5, lambda X: float(X.mean()))
        model = small_model(batch_size=4, max_epochs=3)
        gru_train(model, samples)
        loaded = model_from_dict(model_to_dict(model))
        for m in (model, loaded):
            assert m.vector.dtype == np.float64
            assert m.vector.size == sum(arr.size for arr in m.params.values())
            assert all(np.shares_memory(arr, m.vector) for arr in m.params.values())
        assert loaded.vector.tolist() == model.vector.tolist()


class TestSigmoid:
    def test_large_negative_input_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(np.array([-800.0, -1e308, 0.0, 800.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.5, 1.0])


class TestGruForward:
    def test_zero_parameters_output_final_bias(self):
        model = small_model()
        for k in model.params:
            model.params[k][...] = 0.0
        model.params["db3"][0] = 0.125
        rng = np.random.default_rng(0)
        for _ in range(3):
            scores, _ = model.forward([rng.normal(size=(4, 5))])
            assert scores[0] == 0.125

    def test_dropout_zero_train_equals_eval(self):
        model = small_model()
        X = np.random.default_rng(1).normal(size=(3, 5))
        eval_score, _ = model.forward([X], train=False)
        train_score, _ = model.forward([X], train=True, rng=np.random.default_rng(9))
        assert train_score == eval_score

    def test_matches_step_by_step_oracle(self):
        model = small_model(seed=3)
        X = np.random.default_rng(2).normal(size=(3, 5))
        p = model.params

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros(4)
        for x in X:
            z = sig(x @ p["Wz"] + h @ p["Uz"] + p["bz"])
            r = sig(x @ p["Wr"] + h @ p["Ur"] + p["br"])
            c = np.tanh(x @ p["Wh"] + (r * h) @ p["Uh"] + p["bh"])
            h = (1.0 - z) * h + z * c
        v = h
        for k in range(4):
            pre = v @ p[f"dW{k}"] + p[f"db{k}"]
            v = np.maximum(pre, 0.0) if k < 3 else pre
        scores, _ = model.forward([X])
        assert abs(scores[0] - v[0]) <= 1e-12

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            small_model().forward([np.empty((0, 5))])

    def test_predict_scores_each_sequence(self):
        model = small_model()
        rng = np.random.default_rng(5)
        sequences = [rng.normal(size=(n, 5)) for n in (1, 3, 2)]
        assert model.predict(sequences) == [model.forward([X])[0][0] for X in sequences]

    def test_predict_forwards_a_batch_size_at_a_time(self, monkeypatch):
        model = small_model(batch_size=4)
        rng = np.random.default_rng(6)
        sequences = [rng.normal(size=(n, 5)) for n in (3, 1, 4, 2, 5, 1, 2, 3, 6, 2)]
        whole = model.forward(sequences)[0].tolist()
        sizes, forward = [], model.forward
        monkeypatch.setattr(model, "forward", lambda batch: sizes.append(len(batch)) or forward(batch))
        assert model.predict(sequences) == whole
        assert sizes == [4, 4, 2]


def max_gradient_error(model, forward, label=0.3):
    """Largest relative gap between backward() and central differences of
    (score - label)**2, where forward() maps the model to ([score], cache)."""
    def loss():
        s, _ = forward()
        return (s[0] - label) ** 2

    s, cache = forward()
    grads = _param_views(model.backward(cache, [2.0 * (s[0] - label)]), model.params)

    h = 1e-5
    max_rel = 0.0
    for name, arr in model.params.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss()
            arr[idx] = orig - h
            lm = loss()
            arr[idx] = orig
            num = (lp - lm) / (2.0 * h)
            ana = grads[name][idx]
            rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


class TestGruGradients:
    def test_gradient_check(self):
        model = small_model()
        X = np.random.default_rng(3).normal(size=(3, 5))
        assert max_gradient_error(model, lambda: model.forward([X])) <= 1e-4

    def test_minibatch_equals_minibatches_of_one(self):
        model = small_model(recurrent_dropout_rate=0.5, dense_dropout_rate=0.3, seed=13)
        data = np.random.default_rng(14)
        lengths = (3, 1, 7, 3, 5, 2, 7, 1, 4)  # ragged, unsorted, with ties
        sequences = [data.normal(size=(n, 5)) for n in lengths]
        dscores = data.normal(size=len(lengths)).tolist()

        rng = np.random.default_rng(15)
        scores, cache = model.forward(sequences, train=True, rng=rng)
        grads = _param_views(model.backward(cache, dscores), model.params)

        rng_one = np.random.default_rng(15)
        summed = {k: np.zeros_like(v) for k, v in model.params.items()}
        for X, d, score in zip(sequences, dscores, scores.tolist()):
            one, cache_one = model.forward([X], train=True, rng=rng_one)
            assert one.tolist() == [score]
            g = _param_views(model.backward(cache_one, [d]), model.params)
            for k in summed:
                summed[k] += g[k]
        assert {k: v.tolist() for k, v in grads.items()} == \
            {k: v.tolist() for k, v in summed.items()}
        assert rng.random() == rng_one.random()

    def test_gradient_check_with_dropout_masks(self):
        # re-seeding before every forward keeps the drawn masks fixed, so the
        # masked backward path is checked against the same function
        model = small_model(recurrent_dropout_rate=0.5, dense_dropout_rate=0.3, seed=11)
        X = np.random.default_rng(12).normal(size=(4, 5))
        _, cache = model.forward([X], train=True, rng=np.random.default_rng(7))
        assert 0.0 in cache["masks"][0] and any(0.0 in m for m in cache["masks"][1:])
        assert max_gradient_error(
            model, lambda: model.forward([X], train=True, rng=np.random.default_rng(7))) <= 1e-4


class TestDropout:
    def test_inverted_dropout_preserves_expectation(self):
        rng = np.random.default_rng(4)
        rate = 0.8
        activation = 2.5
        masked = (rng.random(100_000) >= rate) / (1.0 - rate) * activation
        assert abs(masked.mean() - activation) / activation <= 0.01


def make_samples(rng, n_videos, dim, label_fn, caps_per_video=2):
    samples = []
    for i in range(n_videos):
        for _ in range(caps_per_video):
            T = int(rng.integers(3, 7))
            X = rng.normal(size=(T, dim))
            samples.append((f"v{i}", X, label_fn(X)))
    return samples


class TestGruTraining:
    def test_constant_labels_fit(self):
        rng = np.random.default_rng(5)
        samples = make_samples(rng, 15, 6, lambda X: 0.5)
        model = GruRegressor(input_dim=6, hidden_units=8,
                             recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=0,
                             batch_size=4, validation_fraction=0.0)
        gru_train(model, samples)
        preds = [model.predict_sequence(s) for _, s, _ in samples]
        assert max(abs(p - 0.5) for p in preds) <= 0.01

    def test_early_stopping_restores_best_epoch(self):
        rng = np.random.default_rng(6)
        samples = make_samples(rng, 20, 6,
                               lambda X: float(1 / (1 + np.exp(-2 * X.mean()))))
        model = GruRegressor(input_dim=6, hidden_units=8,
                             recurrent_dropout_rate=0.5, dense_dropout_rate=0.25, seed=1,
                             batch_size=8, max_epochs=40)
        log = gru_train(model, samples)
        epochs = [e for e in log if "epoch" in e]
        restored = log[-1]["restored_epoch"]
        best_val = log[-1]["best_val_mse"]
        assert all(e["val_mse"] >= best_val for e in epochs if e["epoch"] > restored)

    def test_diverging_fit_fails_without_warnings(self):
        # the first Adam step at this rate overflows the weights to inf and nan
        rng = np.random.default_rng(8)
        samples = make_samples(rng, 8, 5, lambda X: float(X.mean()))
        model = small_model(recurrent_dropout_rate=0.5,
                            learning_rate=1e300, batch_size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError,
                               match="^non-finite training loss at epoch 0$"):
                gru_train(model, samples)

    def test_update_after_last_batch_diverging_fails_on_validation_loss(self):
        # one minibatch per epoch: its loss is finite, and the update after it overflows
        rng = np.random.default_rng(8)
        samples = make_samples(rng, 8, 5, lambda X: float(X.mean()))
        model = small_model(recurrent_dropout_rate=0.5,
                            learning_rate=1e300, batch_size=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError,
                               match="^non-finite validation loss at epoch 0$"):
                gru_train(model, samples)

    def test_fewer_than_two_samples_rejected(self):
        samples = make_samples(np.random.default_rng(0), 1, 5, lambda X: 0.5, caps_per_video=1)
        with pytest.raises(ValueError, match="^need at least 2 training samples$"):
            gru_train(small_model(), samples)

    def test_synthetic_linear_task_reaches_low_mse(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=8)
        w /= np.linalg.norm(w)
        samples = make_samples(rng, 30, 8,
                               lambda X: float(1 / (1 + np.exp(-2 * X.mean(axis=0) @ w))))
        model = GruRegressor(input_dim=8, hidden_units=64,
                             recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=2,
                             batch_size=16)
        gru_train(model, samples)
        train_mse = float(np.mean([(model.predict_sequence(s) - y) ** 2
                                   for _, s, y in samples]))
        assert train_mse < 0.01

    def test_bit_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        samples = make_samples(rng, 10, 5, lambda X: float(abs(np.tanh(X.mean()))))
        logs, params = [], []
        for _ in range(2):
            model = GruRegressor(input_dim=5, hidden_units=6, seed=42, batch_size=8,
                                 max_epochs=10)
            logs.append(gru_train(model, samples))
            params.append(model.params)
        assert logs[0] == logs[1]
        for k in params[0]:
            np.testing.assert_array_equal(params[0][k], params[1][k])

    def test_matches_recorded_fits_bit_for_bit(self):
        # recorded before dropout masks became plain multipliers; pins the
        # mask draws, the order of the dh_prev sum and the Adam updates
        doc = json.loads((Path(__file__).parent / "data" / "gru_parent_fits.json").read_text())
        assert len(doc["train"]) == 6
        for case in doc["train"]:
            samples = [(vid, np.array(X), y) for vid, X, y in case["samples"]]
            model = GruRegressor(input_dim=3, hidden_units=4,
                                 dense_widths=tuple(case["dense_widths"]),
                                 recurrent_dropout_rate=case["recurrent_dropout_rate"],
                                 dense_dropout_rate=case["dense_dropout_rate"],
                                 seed=case["seed"], learning_rate=0.01,
                                 batch_size=case["batch_size"], max_epochs=5,
                                 validation_fraction=case["validation_fraction"])
            assert gru_train(model, samples) == case["training_log"]
            assert {k: v.tolist() for k, v in model.params.items()} == case["params"]
            assert model.rng.random() == case["next_draw"]

        step = doc["step"]
        model = GruRegressor(input_dim=3, hidden_units=4, dense_widths=(3, 2, 2, 1),
                             recurrent_dropout_rate=0.5, dense_dropout_rate=0.3, seed=11)
        rng = np.random.default_rng(step["rng_seed"])
        scores, cache = model.forward([np.array(step["X"])], train=True, rng=rng)
        grads = _param_views(model.backward(cache, [step["dscore"]]), model.params)
        assert scores[0] == step["score"]
        assert {k: v.tolist() for k, v in grads.items()} == step["grads"]
        assert rng.random() == step["next_draw"]

    def test_matches_recorded_minibatch_fits_bit_for_bit(self):
        # D = H = 16, the default head and dropout, ragged lengths in shuffled
        # order, and a partial last minibatch
        doc = json.loads(
            (Path(__file__).parent / "data" / "gru_parent_batch_fits.json").read_text())
        samples = [(vid, np.array(X), y) for vid, X, y in doc["samples"]]
        model = GruRegressor(input_dim=16, hidden_units=doc["hidden_units"], seed=doc["seed"],
                             batch_size=doc["batch_size"], max_epochs=doc["max_epochs"],
                             validation_fraction=doc["validation_fraction"])
        assert gru_train(model, samples) == doc["training_log"]
        assert {k: v.tolist() for k, v in model.params.items()} == doc["params"]
        assert model.rng.random() == doc["next_draw"]
        assert model.predict([X for _, X, _ in samples]) == doc["predictions"]

    def test_serialization_round_trip(self):
        model = small_model()
        loaded = model_from_dict(model_to_dict(model))
        X = np.random.default_rng(9).normal(size=(3, 5))
        assert loaded.forward([X])[0][0] == model.forward([X])[0][0]
