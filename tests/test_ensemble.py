import logging
import math

import numpy as np
import pytest

from oracles import srcc_oracle
from vidmem import ensemble
from vidmem.aggregate import PredictionTable
from vidmem.corpus import LabelTable
from vidmem.ensemble import (EnsembleWeights, apply_weights, enumerate_simplex,
                             grid_search)
from vidmem.metrics import ConstantInputError, srcc


def table(name, scores):
    return PredictionTable(model_name=name, scores=dict(scores),
                           coverage={v: "direct" for v in scores},
                           aggregation="median")


class TestEnumerateSimplex:
    def test_k1(self):
        assert enumerate_simplex(1, 0.05) == [[1.0]]

    def test_k2_half_bucket(self):
        assert enumerate_simplex(2, 0.5) == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_k4_five_percent_count(self):
        grid = enumerate_simplex(4, 0.05)
        assert len(grid) == 1771
        assert len(grid) == math.comb(23, 3)  # stars and bars

    def test_counts_match_stars_and_bars(self):
        for k in range(1, 6):
            for B in (2, 5, 10, 20):
                grid = enumerate_simplex(k, 1.0 / B)
                assert len(grid) == math.comb(B + k - 1, k - 1)

    def test_vectors_sum_to_one_nonnegative(self):
        for w in enumerate_simplex(4, 0.05):
            assert abs(sum(w) - 1.0) <= 1e-12
            assert all(x >= 0.0 for x in w)

    def test_reported_best_rows_are_grid_points(self):
        grid = enumerate_simplex(4, 0.05)
        assert [0.20, 0.35, 0.45, 0.00] in grid
        assert [0.25, 0.35, 0.20, 0.20] in grid

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simplex(3, 0.07)


class TestGridSearch:
    def test_single_model_weight_one(self):
        t1 = table("m1", {"a": 0.1, "b": 0.5, "c": 0.9})
        truth = LabelTable("short", {"a": 0.2, "b": 0.4, "c": 0.8})
        w = grid_search([t1], truth)
        assert w.weights == (1.0,)
        assert w.validation_srcc == pytest.approx(1.0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        ids = [f"v{i}" for i in range(50)]
        truth_vals = rng.random(50)
        truth = LabelTable("short", dict(zip(ids, truth_vals)))
        tables = [table(f"m{k}", dict(zip(ids, rng.random(50)))) for k in range(4)]

        got = grid_search(tables, truth, bucket=0.05)

        P = np.array([[tb.scores[v] for v in ids] for tb in tables])
        best = None
        for w in enumerate_simplex(4, 0.05):
            s = srcc_oracle(np.asarray(w) @ P, truth_vals)
            if best is None or s > best[0]:
                best = (s, tuple(w))
        assert got.weights == best[1]
        assert got.validation_srcc == pytest.approx(best[0], abs=1e-12)

    def test_tie_break_lexicographic(self):
        # two identical models: every weight split gives the same SRCC
        scores = {"a": 0.1, "b": 0.5, "c": 0.9}
        truth = LabelTable("short", {"a": 0.3, "b": 0.6, "c": 0.7})
        w = grid_search([table("m1", scores), table("m2", scores)], bucket=0.5, truth=truth)
        assert w.weights == (0.0, 1.0)  # lexicographically smallest

    def test_constant_candidates_skipped(self):
        const = table("const", {"a": 0.5, "b": 0.5, "c": 0.5})
        live = table("live", {"a": 0.1, "b": 0.2, "c": 0.9})
        truth = LabelTable("short", {"a": 0.2, "b": 0.3, "c": 0.8})
        w = grid_search([const, live], truth, bucket=0.5)
        assert w.weights[1] > 0.0

    def test_all_constant_rejected(self):
        const = table("const", {"a": 0.5, "b": 0.5})
        truth = LabelTable("short", {"a": 0.2, "b": 0.3})
        with pytest.raises(ValueError):
            grid_search([const], truth, bucket=1.0)

    def test_rank_invariance_of_truth(self):
        rng = np.random.default_rng(1)
        ids = [f"v{i}" for i in range(30)]
        truth_vals = rng.random(30)
        tables = [table(f"m{k}", dict(zip(ids, rng.random(30)))) for k in range(3)]
        w1 = grid_search(tables, LabelTable("short", dict(zip(ids, truth_vals))), 0.1)
        transformed = 1.0 / (1.0 + np.exp(-5.0 * (truth_vals - 0.5)))
        w2 = grid_search(tables, LabelTable("short", dict(zip(ids, transformed))), 0.1)
        assert w1.weights == w2.weights


def scalar_search(P, t, bucket):
    """First maximizer of scalar `srcc` over the simplex, and the skip count."""
    best, skipped = None, 0
    for w in enumerate_simplex(len(P), bucket):
        try:
            score = srcc(np.asarray(w) @ P, t)
        except ConstantInputError:
            skipped += 1
            continue
        if best is None or score > best[0]:
            best = (score, tuple(w))
    return best, skipped


def skip_count(records):
    return sum(r.args[0] for r in records if r.msg.startswith("grid search skipped"))


class TestGridSearchExactness:
    BUCKETS = {1: 0.05, 2: 0.05, 3: 0.05, 4: 0.1, 5: 0.2}

    def check(self, P, t, bucket, caplog):
        ids = [f"v{i}" for i in range(P.shape[1])]
        tables = [table(f"m{m}", dict(zip(ids, row))) for m, row in enumerate(P)]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=ensemble.__name__):
            got = grid_search(tables, LabelTable("short", dict(zip(ids, t))), bucket)
        (score, weights), skipped = scalar_search(P, t, bucket)
        assert got.weights == weights
        assert got.validation_srcc == score
        assert skip_count(caplog.records) == skipped
        return skipped

    def test_equals_scalar_search_on_tied_scores(self, caplog):
        rng = np.random.default_rng(5)
        skipped = 0
        for k, bucket in self.BUCKETS.items():
            for levels in (2, 5, 20):
                for n in (2, 3, *rng.integers(4, 121, size=3)):
                    P = np.floor(rng.random((k, n)) * levels) / levels
                    t = np.floor(rng.random(n) * levels) / levels
                    if np.ptp(t) == 0.0 or np.all(np.ptp(P, axis=1) == 0.0):
                        continue  # every candidate constant: covered below
                    skipped += self.check(P, t, bucket, caplog)
        assert skipped > 0  # the cases do exercise constant candidates

    def test_equals_scalar_search_across_chunks(self, caplog):
        rng = np.random.default_rng(6)
        P = np.floor(rng.random((4, 120)) * 5) / 5
        t = np.floor(rng.random(120) * 5) / 5
        assert len(enumerate_simplex(4, 0.05)) * 120 > 2 * ensemble._CHUNK_ELEMS
        self.check(P, t, 0.05, caplog)

    def test_first_maximizer_wins_across_chunks(self, monkeypatch):
        scores = {"a": 0.1, "b": 0.5, "c": 0.9}
        truth = LabelTable("short", {"a": 0.3, "b": 0.6, "c": 0.7})
        monkeypatch.setattr(ensemble, "_CHUNK_ELEMS", 2 * len(scores))
        tables = [table(f"m{m}", scores) for m in range(3)]
        assert grid_search(tables, truth, bucket=0.25).weights == (0.0, 0.0, 1.0)

    def test_errors_as_scalar_srcc(self):
        truth = LabelTable("short", {"a": 0.2, "b": 0.3})
        with pytest.raises(ValueError, match="inputs must be finite"):
            grid_search([table("m", {"a": 0.1, "b": np.nan})], truth)
        with pytest.raises(ValueError, match="need at least two pairs"):
            grid_search([table("m", {"a": 0.1})], LabelTable("short", {"a": 0.2}))
        with pytest.raises(ValueError, match="every candidate produced constant scores"):
            grid_search([table("m", {"a": 0.5, "b": 0.5})], truth)


class TestApplyWeights:
    def test_pure_weight_reproduces_table(self):
        t1 = table("m1", {"a": 0.2, "b": 0.7})
        t2 = table("m2", {"a": 0.9, "b": 0.1})
        w = EnsembleWeights(("m1", "m2"), (1.0, 0.0), 0.05, 0.5)
        out = apply_weights(w, [t1, t2])
        assert out.scores == t1.scores

    def test_even_blend(self):
        t1 = table("m1", {"a": 0.2})
        t2 = table("m2", {"a": 0.6})
        w = EnsembleWeights(("m1", "m2"), (0.5, 0.5), 0.05, 0.5)
        assert apply_weights(w, [t1, t2]).scores["a"] == pytest.approx(0.4)

    def test_misaligned_names_rejected(self):
        t1 = table("m1", {"a": 0.2})
        w = EnsembleWeights(("other",), (1.0,), 0.05, 0.5)
        with pytest.raises(ValueError):
            apply_weights(w, [t1])

    def test_table_missing_ids_rejected(self):
        t1 = table("m1", {"a": 0.2, "b": 0.7})
        t2 = table("m2", {"a": 0.9})
        w = EnsembleWeights(("m1", "m2"), (0.5, 0.5), 0.05, 0.5)
        with pytest.raises(ValueError, match=r"table 'm2' missing ids \['b'\]"):
            apply_weights(w, [t1, t2])
