import warnings

import numpy as np
import pytest

from vidmem.corpus import WordVectorTable
from vidmem.textmodel import (GruRegressor, TokenizeError,
                              TokenSequence, TrainConfig, _sigmoid, embed,
                              gru_train, tokenize)


class TestTokenize:
    def test_basic(self):
        assert tokenize("A man runs.") == ["a", "man", "runs"]

    def test_case_and_punctuation_folding(self):
        assert tokenize("dog,  DOG!") == ["dog", "dog"]

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
        seq = embed(["the"], table)
        np.testing.assert_array_equal(seq.vectors[0], [1.0, 2.0, 3.0])
        assert seq.oov_count == 0

    def test_unknown_token_zero_vector(self, table):
        seq = embed(["zzzqqq"], table)
        np.testing.assert_array_equal(seq.vectors[0], [0.0, 0.0, 0.0])
        assert seq.oov_count == 1

    def test_mixed(self, table):
        seq = embed(["the", "dog", "xx", "yy", "dog"], table)
        assert seq.oov_count == 2
        assert seq.vectors.shape == (5, 3)


def small_model(**kw):
    defaults = dict(input_dim=5, hidden_units=4, dense_widths=(3, 2, 2, 1),
                    recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=7)
    defaults.update(kw)
    return GruRegressor(**defaults)


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
            score, _ = model.forward(rng.normal(size=(4, 5)))
            assert score == 0.125

    def test_dropout_zero_train_equals_eval(self):
        model = small_model()
        X = np.random.default_rng(1).normal(size=(3, 5))
        eval_score, _ = model.forward(X, train=False)
        train_score, _ = model.forward(X, train=True, rng=np.random.default_rng(9))
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
        score, _ = model.forward(X)
        assert abs(score - v[0]) <= 1e-12

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            small_model().forward(np.empty((0, 5)))


class TestGruGradients:
    def test_gradient_check(self):
        model = small_model()
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 5))
        label = 0.3

        def loss():
            s, _ = model.forward(X)
            return (s - label) ** 2

        s, cache = model.forward(X)
        grads = model.backward(cache, 2.0 * (s - label))

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
        assert max_rel <= 1e-4


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
            seq = TokenSequence(tokens=tuple(["w"] * T), vectors=X, oov_count=0)
            samples.append((f"v{i}", seq, label_fn(X)))
    return samples


class TestGruTraining:
    def test_constant_labels_fit(self):
        rng = np.random.default_rng(5)
        samples = make_samples(rng, 15, 6, lambda X: 0.5)
        model = GruRegressor(input_dim=6, hidden_units=8,
                             recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=0,
                             train_config=TrainConfig(batch_size=4))
        gru_train(model, samples, validation_fraction=0.0)
        preds = [model.predict_sequence(s) for _, s, _ in samples]
        assert max(abs(p - 0.5) for p in preds) <= 0.01

    def test_early_stopping_restores_best_epoch(self):
        rng = np.random.default_rng(6)
        samples = make_samples(rng, 20, 6,
                               lambda X: float(1 / (1 + np.exp(-2 * X.mean()))))
        model = GruRegressor(input_dim=6, hidden_units=8,
                             recurrent_dropout_rate=0.5, dense_dropout_rate=0.25, seed=1,
                             train_config=TrainConfig(batch_size=8, max_epochs=40))
        log = gru_train(model, samples)
        epochs = [e for e in log if "epoch" in e]
        restored = log[-1]["restored_epoch"]
        best_val = log[-1]["best_val_mse"]
        assert all(e["val_mse"] >= best_val for e in epochs if e["epoch"] > restored)

    def test_synthetic_linear_task_reaches_low_mse(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=8)
        w /= np.linalg.norm(w)
        samples = make_samples(rng, 30, 8,
                               lambda X: float(1 / (1 + np.exp(-2 * X.mean(axis=0) @ w))))
        model = GruRegressor(input_dim=8, hidden_units=64,
                             recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=2,
                             train_config=TrainConfig(batch_size=16))
        gru_train(model, samples)
        train_mse = float(np.mean([(model.predict_sequence(s) - y) ** 2
                                   for _, s, y in samples]))
        assert train_mse < 0.01

    def test_bit_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        samples = make_samples(rng, 10, 5, lambda X: float(abs(np.tanh(X.mean()))))
        logs, params = [], []
        for _ in range(2):
            model = GruRegressor(input_dim=5, hidden_units=6, seed=42,
                                 train_config=TrainConfig(batch_size=8, max_epochs=10))
            logs.append(gru_train(model, samples))
            params.append(model.params)
        assert logs[0] == logs[1]
        for k in params[0]:
            np.testing.assert_array_equal(params[0][k], params[1][k])

    def test_serialization_round_trip(self):
        model = small_model()
        doc = model.to_dict()
        loaded = GruRegressor.from_dict(doc)
        X = np.random.default_rng(9).normal(size=(3, 5))
        assert loaded.forward(X)[0] == model.forward(X)[0]
