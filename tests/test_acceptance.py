"""Acceptance suite: one test per criterion; `pytest -v` prints one
pass/fail line for each. Tolerances are pinned in the asserts."""

import math
import time

import numpy as np

from oracles import (decay_update_round, ridge_closed_form, srcc_oracle,
                     svr_dual_objective, svr_qp_oracle)
from vidmem.aggregate import PredictionTable, aggregate_rows
from vidmem.corpus import AnnotationLog, LabelTable
from vidmem.decay import fit_decay
from vidmem.ensemble import enumerate_simplex, grid_search
from vidmem.harness import (FeatureModelConfig, SyntheticCorpusSpec,
                            generate_synthetic, report_to_json,
                            run_full_experiment, split)
from vidmem.metrics import srcc
from vidmem.regress import _kernel_matrix, fit_linear, fit_svr
from vidmem.textmodel import GruRegressor, _param_views, gru_train


def test_criterion_01_decay_fit_recovery():
    spec = SyntheticCorpusSpec(n_videos=500, obs_per_video=30, true_alpha=-0.03,
                               delay_low=30.0, delay_high=150.0,
                               target_duration=75.0, seed=0)
    synth = generate_synthetic(spec)
    log = synth.corpus.annotations["short"]

    start = time.perf_counter()
    fit = fit_decay(log, 75.0, iterations=10)
    elapsed = time.perf_counter() - start

    alpha_err = abs(fit.alpha + 0.03)
    m_err = float(np.mean([abs(fit.m_t[v] - synth.true_m[v]) for v in fit.m_t]))
    print(f"criterion 1: alpha_err={alpha_err:.4f} mean_m_err={m_err:.4f} "
          f"runtime={elapsed:.2f}s")

    assert elapsed < 10.0
    assert alpha_err <= 0.01

    degenerate = AnnotationLog(("v", "v", "v"), (75.0, 75.0, 75.0), (1, 0, 1))
    dfit = fit_decay(degenerate, 75.0, iterations=10)
    assert dfit.m_t["v"] == 2.0 / 3.0  # bit-exact raw hit rate
    assert dfit.warnings

    # 30 Bernoulli draws per video put the attainable mean |m - m*| near
    # sqrt(p(1-p)/30) ~ 0.08; the 0.03 bound is below that noise floor and
    # this assert fails for any faithful estimator at this sample size.
    assert m_err <= 0.03, (
        f"mean |m - m*| = {m_err:.4f} exceeds 0.03; binomial sampling noise at "
        f"30 observations/video lower-bounds this error near 0.08")


def test_criterion_02_decay_fixed_point():
    spec = SyntheticCorpusSpec(n_videos=80, obs_per_video=12, seed=1)
    log = generate_synthetic(spec).corpus.annotations["short"]
    fit = fit_decay(log, 75.0, iterations=200)
    alpha2, m2 = decay_update_round(log, 75.0, fit.alpha, fit.m_t)
    d_alpha = abs(alpha2 - fit.alpha)
    d_m = max(abs(m2[v] - fit.m_t[v]) for v in m2)
    print(f"criterion 2: d_alpha={d_alpha:.2e} max_d_m={d_m:.2e}")
    assert d_alpha < 1e-12
    assert d_m < 1e-12


def test_criterion_03_srcc_oracle_equivalence():
    assert srcc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        a = np.round(rng.random(n), 1)  # rounding forces ties
        b = np.round(rng.random(n), 1)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        worst = max(worst, abs(srcc(a, b) - srcc_oracle(a, b)))
    print(f"criterion 3: max |srcc - oracle| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_04_ridge_ols_correctness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        X = rng.normal(size=(50, 10))
        y = X @ rng.normal(size=10) + rng.normal(size=50)
        lam = float(rng.uniform(0.01, 10.0))
        model = fit_linear(X, y, kind="ridge", hyper={"lam": lam})
        w_oracle, _ = ridge_closed_form(X, y, lam)
        worst = max(worst, float(np.max(np.abs(model.weights - w_oracle))))
    ridge0 = fit_linear(X, y, kind="ridge", hyper={"lam": 0.0})
    ols = fit_linear(X, y, kind="ols")
    ols_gap = float(np.max(np.abs(ridge0.weights - ols.weights)))
    print(f"criterion 4: max ridge gap={worst:.2e} lam=0 vs OLS gap={ols_gap:.2e}")
    assert worst <= 1e-8
    assert ols_gap <= 1e-10


def test_criterion_05_bayesian_ridge():
    rng = np.random.default_rng(4)
    worst_dip, worst_iters = 0.0, 0
    for _ in range(20):
        n = int(rng.integers(40, 81))
        d = int(rng.integers(3, 11))
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n)
        model = fit_linear(X, y, kind="bayes_ridge")
        ev = model.history["log_evidence"]
        worst_dip = min(worst_dip, min(b - a for a, b in zip(ev, ev[1:])))
        worst_iters = max(worst_iters, model.history["iterations"])
    print(f"criterion 5: worst evidence step={worst_dip:.2e} "
          f"max iterations={worst_iters}")
    assert worst_dip >= -1e-10
    assert worst_iters <= 300


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


def test_criterion_06_svr_dual_optimality():
    worst_rel, worst_kkt, worst_sum = 0.0, 0.0, 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
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
        obj_oracle = svr_dual_objective(svr_qp_oracle(K, y, C, eps), K, y, eps)
        worst_rel = max(worst_rel, abs(obj_oracle - obj) / max(1.0, abs(obj_oracle)))
        worst_kkt = max(worst_kkt, model.history["kkt_violation"])
        worst_sum = max(worst_sum, abs(beta.sum()))
    print(f"criterion 6: rel gap={worst_rel:.2e} kkt={worst_kkt:.2e} "
          f"|sum beta|={worst_sum:.2e}")
    assert worst_rel <= 1e-4
    assert worst_kkt <= 1e-3
    assert worst_sum <= 1e-6


def test_criterion_07_gru_gradients_and_determinism():
    model = GruRegressor(input_dim=5, hidden_units=4, dense_widths=(3, 2, 2, 1),
                         recurrent_dropout_rate=0.0, dense_dropout_rate=0.0, seed=7)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 5))
    label = 0.3

    def loss():
        s, _ = model.forward([X])
        return (s[0] - label) ** 2

    s, cache = model.forward([X])
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
            rel = abs(num - grads[name][idx]) / max(abs(num), abs(grads[name][idx]), 1e-8)
            max_rel = max(max_rel, rel)
    print(f"criterion 7: max gradient rel err={max_rel:.2e}")
    assert max_rel <= 1e-4

    samples = []
    for i in range(10):
        T = int(rng.integers(3, 7))
        Xi = rng.normal(size=(T, 5))
        samples.append((f"v{i}", Xi, float(abs(np.tanh(Xi.mean())))))
    runs = []
    for _ in range(2):
        m = GruRegressor(input_dim=5, hidden_units=6, seed=42, batch_size=8, max_epochs=10)
        log = gru_train(m, samples)
        runs.append((log, {k: v.copy() for k, v in m.params.items()}))
    assert runs[0][0] == runs[1][0]
    for k in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])


def test_criterion_08_simplex_enumeration():
    grid = enumerate_simplex(4, 0.05)
    worst_sum = max(abs(sum(w) - 1.0) for w in grid)
    print(f"criterion 8: count={len(grid)} worst sum dev={worst_sum:.2e}")
    assert len(grid) == 1771
    assert len(grid) == math.comb(23, 3)
    assert worst_sum <= 1e-12
    assert all(x >= 0.0 for w in grid for x in w)
    assert [0.20, 0.35, 0.45, 0.00] in grid
    assert [0.25, 0.35, 0.20, 0.20] in grid


def test_criterion_09_grid_search_optimality():
    for trial in range(3):
        rng = np.random.default_rng(900 + trial)
        ids = [f"v{i}" for i in range(50)]
        truth_vals = rng.random(50)
        truth = LabelTable("short", dict(zip(ids, truth_vals)))
        tables = [PredictionTable(f"m{k}", dict(zip(ids, rng.random(50))),
                                  {v: "direct" for v in ids})
                  for k in range(4)]
        got = grid_search(tables, truth, bucket=0.05)

        P = np.array([[tb.scores[v] for v in ids] for tb in tables])
        best = None
        for w in enumerate_simplex(4, 0.05):
            s = srcc_oracle(np.asarray(w) @ P, truth_vals)
            if best is None or s > best[0]:
                best = (s, tuple(w))
        assert got.weights == best[1], f"trial {trial}: {got.weights} != {best[1]}"
    print("criterion 9: exact argmax agreement on 3 random 50-video instances")


def test_criterion_10_aggregation_contracts():
    rng = np.random.default_rng(6)
    rows = list(rng.random(9))
    base = aggregate_rows({"v": rows}).scores["v"]
    for _ in range(1000):
        rng.shuffle(rows)
        assert aggregate_rows({"v": rows}).scores["v"] == base

    assert aggregate_rows({"v": [0.2, 0.4, 0.6, 0.8]}).scores["v"] == 0.5

    per_row = {"a": [0.1, 0.2], "b": [0.9], "c": [0.4, 0.6, 0.5]}
    table = aggregate_rows(per_row, id_universe=["a", "b", "c", "d"])
    direct_mean = sum(table.scores[v] for v in ("a", "b", "c")) / 3
    fb_gap = abs(table.scores["d"] - direct_mean)
    print(f"criterion 10: fallback gap={fb_gap:.2e}")
    assert table.coverage["d"] == "fallback"
    assert fb_gap <= 1e-12


def test_criterion_11_end_to_end_sanity():
    spec = SyntheticCorpusSpec(n_videos=100, obs_per_video=10, feature_dim=8,
                               noise=0.0, seed=11)
    corpus = generate_synthetic(spec).corpus
    configs = [FeatureModelConfig("featA", "ridge", {"lam": 1.0}),
               FeatureModelConfig("featB", "ridge", {"lam": 1.0})]
    start = time.perf_counter()
    report = run_full_experiment(corpus, configs, configs, seeds=(0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - start

    feat_a = next(r for r in report["features"]["rows"] if r["feature"] == "featA")
    mean_srcc = feat_a["terms"]["short"]["mean"]
    weights = [row["weights"][row["model_names"].index("featA:ridge")]
               for row in report["ensemble"]["rows"]]
    print(f"criterion 11: runtime={elapsed:.1f}s featA mean SRCC={mean_srcc:.3f} "
          f"min featA weight={min(weights):.2f}")
    assert elapsed < 120.0
    assert mean_srcc >= 0.9
    assert all(w >= 0.8 for w in weights)


def test_criterion_12_protocol_structure():
    sp = split([f"v{i}" for i in range(590)], seed=0)
    assert len(sp.train_ids) == 472
    assert len(sp.valid_ids) == 118

    spec = SyntheticCorpusSpec(n_videos=60, obs_per_video=5, feature_dim=4, seed=12)
    corpus = generate_synthetic(spec).corpus
    configs = [FeatureModelConfig("featA", "ridge", {"lam": 1.0}),
               FeatureModelConfig("featB", "ridge", {"lam": 1.0})]

    reports = [run_full_experiment(corpus, configs, configs, seeds=(0, 1), workers=w)
               for w in (1, 1, 4)]
    texts = [report_to_json(r) for r in reports]
    assert texts[0] == texts[1] == texts[2]

    # per-feature rows: mean and variance per retention term
    for row in reports[0]["features"]["rows"]:
        for term in ("short", "long"):
            assert set(row["terms"][term]) == {"per_seed", "mean", "variance"}
    # ensemble rows: one weight column per model plus valid/test scores
    for row in reports[0]["ensemble"]["rows"]:
        assert len(row["weights"]) == len(row["model_names"]) == 2
        assert "validation_srcc" in row and "test_srcc" in row
    print("criterion 12: split 472/118, schemas verified, reports byte-identical "
          "across runs and worker counts")
