import json
from pathlib import Path

import numpy as np
import pytest

from oracles import ridge_closed_form, svr_dual_objective, svr_qp_oracle
from vidmem.regress import (ConvergenceError, LinearModel, SingularMatrixError,
                            Standardizer, SvrModel, _kernel_matrix, fit_linear,
                            fit_standardizer, fit_svr, load_model, model_from_dict,
                            model_to_dict, save_model)
from vidmem.textmodel import GruRegressor, gru_train


class TestStandardizer:
    def test_two_point_column(self):
        std = fit_standardizer([[1.0], [3.0]])
        np.testing.assert_array_equal(std.means, [2.0])
        np.testing.assert_array_equal(std.stds, [1.0])
        np.testing.assert_array_equal(std.transform([[1.0], [3.0]]), [[-1.0], [1.0]])

    def test_constant_column(self):
        std = fit_standardizer([[5.0], [5.0]])
        assert std.stds[0] == 1.0
        np.testing.assert_array_equal(std.transform([[5.0], [5.0]]), [[0.0], [0.0]])

    def test_random_matrix_recompute(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 10))
        Xs = fit_standardizer(X).transform(X)
        assert np.max(np.abs(Xs.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(Xs.std(axis=0) - 1.0)) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.empty((0, 3)))


class TestLinearFamily:
    def test_ridge_zero_lam_matches_ols(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=40)
        ols = fit_linear(X, y, kind="ols")
        ridge = fit_linear(X, y, kind="ridge", hyper={"lam": 0.0})
        assert np.max(np.abs(ols.weights - ridge.weights)) <= 1e-10

    def test_ridge_matches_closed_form_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            X = rng.normal(size=(50, 10))
            y = X @ rng.normal(size=10) + rng.normal(size=50)
            lam = float(rng.uniform(0.01, 10.0))
            model = fit_linear(X, y, kind="ridge", hyper={"lam": lam})
            w_oracle, intercept = ridge_closed_form(X, y, lam)
            assert np.max(np.abs(model.weights - w_oracle)) <= 1e-8
            assert model.intercept == pytest.approx(intercept)

    def test_ols_singular_suggests_ridge(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear
        with pytest.raises(SingularMatrixError, match="ridge"):
            fit_linear(X, [1.0, 2.0, 3.0], kind="ols")

    def test_lasso_saturation_gives_zero_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=30)
        model = fit_linear(X, y, kind="lasso", hyper={"lam": 1e6})
        assert np.all(model.weights == 0.0)
        np.testing.assert_allclose(model.predict(X), np.full(30, y.mean()))

    def test_lasso_small_lam_near_ols(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 4))
        y = X @ rng.normal(size=4) + 0.1 * rng.normal(size=60)
        lasso = fit_linear(X, y, kind="lasso", hyper={"lam": 0.0})
        ols = fit_linear(X, y, kind="ols")
        assert np.max(np.abs(lasso.weights - ols.weights)) <= 1e-6

    def test_bayes_evidence_nondecreasing_and_converges(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(50, 8))
            y = X @ rng.normal(size=8) + rng.normal(scale=0.5, size=50)
            model = fit_linear(X, y, kind="bayes_ridge")
            ev = model.history["log_evidence"]
            assert min(b - a for a, b in zip(ev, ev[1:])) >= -1e-10
            assert model.history["iterations"] <= 300

    def test_lasso_skips_constant_column(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2))
        y = X @ [1.0, -0.5] + 0.1 * rng.normal(size=40)
        with_constant = np.column_stack([X[:, 0], np.full(40, 3.0), X[:, 1]])
        got = fit_linear(with_constant, y, kind="lasso", hyper={"lam": 0.01})
        expected = fit_linear(X, y, kind="lasso", hyper={"lam": 0.01})
        assert got.weights[1] == 0.0
        np.testing.assert_allclose(got.weights[[0, 2]], expected.weights, rtol=1e-12)
        assert got.history["sweeps"] == expected.history["sweeps"]

    def test_bayes_not_converged_raises_with_diagnostics(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 3))
        y = X @ [0.5, -1.0, 0.2] + 0.3 * rng.normal(size=30)
        with pytest.raises(ConvergenceError,
                           match="^bayes_ridge did not converge in 2 iterations$") as err:
            fit_linear(X, y, kind="bayes_ridge", hyper={"max_iter": 2, "tol": 1e-300})
        diagnostics = err.value.diagnostics
        assert set(diagnostics) == {"alpha_noise", "lambda_prior", "log_evidence"}
        assert len(diagnostics["log_evidence"]) == 2
        assert diagnostics["alpha_noise"] > 0 and diagnostics["lambda_prior"] > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown linear kind 'forest'$"):
            fit_linear(np.zeros((3, 2)), np.zeros(3), kind="forest")

    def test_bayes_ols_limit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 6))
        y = X @ rng.normal(size=6) + 0.1 * rng.normal(size=50)
        bayes = fit_linear(X, y, kind="bayes_ridge",
                           hyper={"fixed_alpha_noise": 1e9, "fixed_lambda_prior": 1e-9})
        ols = fit_linear(X, y, kind="ols")
        assert np.max(np.abs(bayes.predict(X) - ols.predict(X))) <= 1e-4

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=40)
        perm = rng.permutation(40)
        for kind, hyper in (("ols", None), ("ridge", {"lam": 2.0})):
            a = fit_linear(X, y, kind=kind, hyper=hyper)
            b = fit_linear(X[perm], y[perm], kind=kind, hyper=hyper)
            assert np.max(np.abs(a.weights - b.weights)) <= 1e-9

    def test_target_translation(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=40)
        for kind in ("ols", "ridge", "lasso", "bayes_ridge"):
            a = fit_linear(X, y, kind=kind)
            b = fit_linear(X, y + 3.5, kind=kind)
            assert np.max(np.abs((b.predict(X) - a.predict(X)) - 3.5)) <= 1e-9


class TestSvr:
    def test_constant_targets(self):
        X = np.linspace(0.0, 1.0, 15)[:, None]
        model = fit_svr(X, np.full(15, 0.42), kernel="linear")
        assert len(model.dual_coefs) == 0
        np.testing.assert_allclose(model.predict(X), np.full(15, 0.42))

    def test_noiseless_line_inside_tube(self):
        x = np.linspace(-1.0, 2.0, 25)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        model = fit_svr(x, y, kernel="linear", epsilon=0.1, C=100.0)
        assert np.max(np.abs(model.predict(x) - y)) <= 0.1 + 1e-3

    def test_dual_matches_qp_oracle(self):
        for trial in range(8):
            rng = np.random.default_rng(100 + trial)
            n, d = int(rng.integers(8, 21)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            C = float(rng.uniform(0.5, 3.0))
            eps = float(rng.uniform(0.0, 0.3))
            kernel = "rbf" if trial % 2 == 0 else "linear"
            model = fit_svr(X, y, kernel=kernel, C=C, epsilon=eps)

            Xs = model.standardizer.transform(X)
            K = _kernel_matrix(kernel, model.gamma, Xs, Xs)
            beta = _full_beta(model, Xs)
            obj = svr_dual_objective(beta, K, y, eps)
            beta_oracle = svr_qp_oracle(K, y, C, eps)
            obj_oracle = svr_dual_objective(beta_oracle, K, y, eps)
            assert abs(obj_oracle - obj) <= 1e-4 * max(1.0, abs(obj_oracle))
            assert model.history["kkt_violation"] <= 1e-3
            assert abs(beta.sum()) <= 1e-6
            assert np.max(np.abs(beta)) <= C + 1e-12

    def test_kkt_conditions_recomputed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=25)
        model = fit_svr(X, y, epsilon=0.05)
        Xs = model.standardizer.transform(X)
        K = _kernel_matrix(model.kernel, model.gamma, Xs, Xs)
        beta = _full_beta(model, Xs)
        u = K @ beta
        eps, C = model.epsilon, model.C
        residuals = y - (u + model.bias)
        viol = 0.0
        for r, bi in zip(residuals, beta):
            if abs(bi) <= 1e-12:
                viol = max(viol, abs(r) - eps)       # inside the tube
            elif bi >= C - 1e-9:
                viol = max(viol, eps - r)            # at +C: r >= eps
            elif bi > 0:
                viol = max(viol, abs(r - eps))       # free upper: r == eps
            elif bi <= -C + 1e-9:
                viol = max(viol, r + eps)            # at -C: r <= -eps
            else:
                viol = max(viol, abs(r + eps))       # free lower: r == -eps
        assert viol <= 1e-3 + 1e-9

    def test_target_translation_loose(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 4))
        y = X @ rng.normal(size=4) + 0.2 * rng.normal(size=30)
        a = fit_svr(X, y)
        b = fit_svr(X, y + 2.0)
        assert np.max(np.abs((b.predict(X) - a.predict(X)) - 2.0)) <= 1e-3

    def test_matches_recorded_fits_bit_for_bit(self):
        # Recorded from the (a, a*) two-array solver on quantized inputs (ties in
        # pair selection), C = 0.01 (active box bounds) and epsilon = 0.
        cases = json.loads((Path(__file__).parent / "data" / "svr_parent_fits.json").read_text())
        assert len(cases) == 8
        for case in cases:
            model = fit_svr(np.array(case["X"]), np.array(case["y"]), kernel=case["kernel"],
                            C=case["C"], epsilon=case["epsilon"])
            assert model.dual_coefs.tolist() == case["dual_coefs"]
            assert model.bias == case["bias"]
            assert model.history == {"iterations": case["iterations"],
                                     "kkt_violation": case["kkt_violation"]}

    def test_matches_recorded_edge_fits_bit_for_bit(self):
        # Recorded from the array-per-update SMO loop: the protocol-models
        # shape (n = 120, d = 2), duplicated rows (the first pair is two copies
        # of one row, so eta is clamped), quantized targets (selection ties),
        # epsilon = 0, an explicit gamma, a linear kernel at tol 1e-5 and an
        # exhausted max_iter.
        cases = json.loads((Path(__file__).parent / "data" / "svr_parent_edge_fits.json")
                           .read_text())
        assert len(cases) == 8
        for case in cases:
            X, y = np.array(case["X"]), np.array(case["y"])
            if "error" in case:
                with pytest.raises(ConvergenceError) as err:
                    fit_svr(X, y, **case["settings"])
                assert str(err.value) == case["error"], case["name"]
                assert err.value.diagnostics == {"kkt_violation": case["kkt_violation"]}
                continue
            model = fit_svr(X, y, **case["settings"])
            assert model.dual_coefs.tolist() == case["dual_coefs"], case["name"]
            assert model.support_vectors.tolist() == case["support_vectors"], case["name"]
            assert model.bias == case["bias"], case["name"]
            assert model.history == case["history"], case["name"]

    def test_max_iter_exhausted_raises_with_gap(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        with pytest.raises(ConvergenceError, match="did not converge in 3 pair updates") as err:
            fit_svr(X, y, max_iter=3)
        assert err.value.diagnostics["kkt_violation"] > 1e-3

    def test_invalid_params(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            fit_svr(X, [0.0, 0.0, 0.0], C=0.0)
        with pytest.raises(ValueError):
            fit_svr(X, [0.0, 0.0, 0.0], epsilon=-0.1)


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_linear(X, y, kind="ols"), lambda X, y: fit_linear(X, y, kind="ridge"),
    lambda X, y: fit_linear(X, y, kind="lasso"), lambda X, y: fit_linear(X, y, kind="bayes_ridge"),
    lambda X, y: fit_svr(X, y), lambda X, y: fit_svr(X, y, kernel="linear"),
], ids=["ols", "ridge", "lasso", "bayes_ridge", "svr-rbf", "svr-linear"])
@pytest.mark.parametrize("where, value", [("X", np.nan), ("y", np.nan), ("X", np.inf),
                                          ("y", -np.inf)])
def test_non_finite_inputs_rejected(fit, where, value):
    rng = np.random.default_rng(16)
    data = {"X": rng.normal(size=(10, 2)), "y": rng.normal(size=10)}
    data[where].flat[3] = value
    with pytest.raises(ValueError, match="^inputs must be finite$"):
        fit(data["X"], data["y"])


@pytest.mark.parametrize("fit", [fit_linear, fit_svr], ids=["linear", "svr"])
@pytest.mark.parametrize("X, y", [(np.zeros(3), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2)),
                                  (np.zeros((1, 2)), np.zeros(1))],
                         ids=["1-d", "mismatched", "one-row"])
def test_bad_shapes_rejected(fit, X, y):
    with pytest.raises(ValueError, match=r"^need a row matrix with matching targets, >= 2 rows$"):
        fit(X, y)


def _full_beta(model, Xs):
    beta = np.zeros(len(Xs))
    used = np.zeros(len(Xs), dtype=bool)
    for row, coef in zip(model.support_vectors, model.dual_coefs):
        for i in range(len(Xs)):
            if not used[i] and np.array_equal(Xs[i], row):
                beta[i] = coef
                used[i] = True
                break
    return beta


class TestPredict:
    def test_linear_direct(self):
        std = Standardizer(means=np.zeros(2), stds=np.ones(2))
        model = LinearModel(kind="ols", weights=np.array([1.0, 0.0]),
                            intercept=0.5, hyper={}, standardizer=std)
        assert model.predict([[2.0, 7.0]])[0] == 2.5

    def test_svr_zero_coefs_is_bias(self):
        std = Standardizer(means=np.zeros(2), stds=np.ones(2))
        model = SvrModel(kernel="rbf", gamma=1.0, C=1.0, epsilon=0.1,
                         support_vectors=np.empty((0, 2)), dual_coefs=np.empty(0),
                         bias=0.3, standardizer=std)
        np.testing.assert_array_equal(model.predict([[1.0, 2.0], [9.0, -4.0]]), [0.3, 0.3])

    def test_noiseless_ridge_recovery(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 6))
        w_true = rng.normal(size=6)
        y = X @ w_true
        model = fit_linear(X, y, kind="ridge", hyper={"lam": 1e-10})
        assert np.max(np.abs(model.predict(X) - y)) <= 1e-6

    def test_dimension_mismatch(self):
        std = Standardizer(means=np.zeros(2), stds=np.ones(2))
        model = LinearModel(kind="ols", weights=np.array([1.0, 0.0]),
                            intercept=0.0, hyper={}, standardizer=std)
        with pytest.raises(ValueError):
            model.predict([[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (5, 2, 3)], ids=["row", "rows", "block"])
    def test_wrong_width_names_both_widths(self, shape):
        std = Standardizer(means=np.zeros(2), stds=np.ones(2))
        with pytest.raises(ValueError, match=r"^expected 2 features, got 3$"):
            std.transform(np.zeros(shape))

    @pytest.mark.parametrize("kind", ["ridge", "svr-rbf", "svr-linear", "svr-no-support-vectors"])
    @pytest.mark.parametrize("n, L, d", [(1, 1, 1), (6, 1, 5), (7, 4, 3), (5, 9, 17), (3, 2, 64)])
    def test_stacked_block_equals_per_slice_calls(self, kind, n, L, d):
        rng = np.random.default_rng(100 * L + d)
        X, y = rng.normal(size=(40, d)), rng.normal(size=40)
        model = (fit_linear(X, y, kind="ridge") if kind == "ridge"
                 else fit_svr(X, y, kernel=kind.split("-")[1]) if kind != "svr-no-support-vectors"
                 else fit_svr(X, y, epsilon=100.0))
        if kind.startswith("svr"):
            assert (len(model.dual_coefs) == 0) == (kind == "svr-no-support-vectors")
        block = 3.0 * rng.normal(size=(n, L, d))
        stacked = model.predict(block)
        assert stacked.shape == (n, L)
        for i in range(n):
            assert stacked[i].tolist() == model.predict(block[i].copy()).tolist()


def _pinned_models():
    """One model of each file layout, fit from fixed data: the models whose
    `save_model` text `model_parent_files.json` records."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(20, 3))
    y = X @ [0.3, -0.2, 0.1] + 0.05 * rng.normal(size=20)
    models = {kind: fit_linear(X, y, kind=kind, hyper=hyper) for kind, hyper in (
        ("ols", {}), ("ridge", {"lam": 0.5}), ("lasso", {"lam": 0.01}), ("bayes_ridge", {}))}
    models["svr_rbf"] = fit_svr(X, y, epsilon=0.05)
    models["svr_linear"] = fit_svr(X, y, kernel="linear", C=2.0, epsilon=0.05)
    models["svr_no_support_vectors"] = fit_svr(X, np.full(20, 0.42), kernel="linear")
    gru = GruRegressor(input_dim=3, hidden_units=3, dense_widths=(2, 1), seed=5, batch_size=4,
                       max_epochs=2)
    gru_train(gru, [(f"v{i // 2}", rng.normal(size=(2 + i % 3, 3)), float(y[i]))
                    for i in range(12)])
    models["gru"] = gru
    return models


class TestSerialization:
    def test_saved_bytes_match_parent(self, tmp_path):
        # recorded before GRU files moved into regress; a reload must write
        # the same bytes again
        recorded = json.loads((Path(__file__).parent / "data" / "model_parent_files.json")
                              .read_text())
        models = _pinned_models()
        assert len(models["svr_no_support_vectors"].dual_coefs) == 0
        assert set(models) == set(recorded)
        for name, model in models.items():
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            assert path.read_text() == recorded[name], name
            save_model(load_model(path), path)
            assert path.read_text() == recorded[name], name

    def test_linear_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        model = fit_linear(X, y, kind="ridge", hyper={"lam": 0.5})
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_svr_round_trip(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_svr(X, y)
        loaded = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_gru_round_trip(self, tmp_path):
        model = GruRegressor(input_dim=3, hidden_units=2, dense_widths=(2, 1), seed=4)
        path = tmp_path / "gru.json"
        save_model(model, path)
        loaded = load_model(path)
        X = np.random.default_rng(16).normal(size=(4, 3))
        assert loaded.forward([X])[0][0] == model.forward([X])[0][0]

    def test_gru_file_from_earlier_cli_loads(self):
        # written by `vidmem train --model gru` when GRU files bypassed save_model;
        # the expected scores are what that version predicted from the file
        model = load_model(Path(__file__).parent / "data" / "gru_model_legacy_cli.json")
        X = np.array([[0.1, -0.2], [0.5, 0.3], [-0.4, 0.2]])
        assert model.forward([X])[0][0] == 0.17032157143271062
        assert model.forward([X[:1]])[0][0] == -0.055665545823621
