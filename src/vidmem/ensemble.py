"""Exhaustive weighted-average ensembling on the bucketed probability simplex.

Weights are enumerated as integer bucket counts (so the sum-to-one constraint
is exact by construction) and scored by validation SRCC; ties break toward
the lexicographically smallest weight vector.  The search ranks the truth
once and scores the candidates a bounded chunk at a time with the one
correlation kernel of `metrics`; the scores equal scalar `srcc` bit for bit.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .aggregate import PredictionTable
from .corpus import LabelTable
from .metrics import centred_ranks, rank_correlation

logger = logging.getLogger(__name__)

# Most candidate-by-id elements scored at once; a chunk holds a few float64
# and int64 arrays of this size.
_CHUNK_ELEMS = 1 << 16


@dataclass(frozen=True)
class EnsembleWeights:
    model_names: tuple[str, ...]
    weights: tuple[float, ...]
    bucket: float
    validation_srcc: float


def bucket_count(bucket: float) -> int:
    if not (0.0 < bucket <= 1.0):
        raise ValueError(f"bucket must lie in (0, 1], got {bucket}")
    b = 1.0 / bucket
    if abs(b - round(b)) > 1e-9:
        raise ValueError(f"1/bucket must be an integer, got {b}")
    return int(round(b))


def enumerate_simplex(k: int, bucket: float = 0.05) -> list[list[float]]:
    """All k-vectors of non-negative bucket multiples summing to 1, in
    lexicographic order; count equals C(B+k-1, k-1) for B = 1/bucket.

    Stars and bars: k - 1 bars among B + k - 1 slots leave B stars in k
    runs, and bar positions in lexicographic order give run lengths in
    lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    B = bucket_count(bucket)
    return [[(hi - lo - 1) / B for lo, hi in zip((-1, *bars), (*bars, B + k - 1))]
            for bars in itertools.combinations(range(B + k - 1), k - 1)]


def _score_matrix(tables, ids) -> np.ndarray:
    """The tables' scores as a (len(tables), len(ids)) array, one row per
    table in `ids` order; every table must hold every id."""
    P = np.empty((len(tables), len(ids)))
    for m, table in enumerate(tables):
        missing = [vid for vid in ids if vid not in table.scores]
        if missing:
            raise ValueError(f"table {table.model_name!r} missing ids {missing[:5]}")
        P[m] = [table.scores[vid] for vid in ids]
    return P


def grid_search(tables, truth: LabelTable, bucket: float = 0.05) -> EnsembleWeights:
    """Find the simplex grid point maximizing SRCC against `truth`.

    The truth is ranked once.  Candidates are scored in chunks of at most
    `_CHUNK_ELEMS` candidate-by-id elements (one candidate per chunk when a
    single row is longer), each chunk in one `rank_correlation` call.  The
    stacked `(1, k) @ (k, n)` products build each combined row exactly as
    `np.asarray(w) @ P` does (a 2-d `W @ P` would not), and the kernel's sums
    are exact (see `metrics`), so every candidate's score is bit-identical
    to `srcc(np.asarray(w) @ P, t)` for up to about 2*10**5 ids.

    Candidates whose combined scores are constant (undefined SRCC) are
    skipped with a log entry.  Deterministic: the first maximizer in
    lexicographic order wins.
    """
    if not tables:
        raise ValueError("need at least one prediction table")
    ids = list(truth.scores)
    P = _score_matrix(tables, ids)
    t = np.array([truth.scores[vid] for vid in ids])
    n = len(ids)
    if n < 2:
        raise ValueError("need at least two pairs")
    if not np.all(np.isfinite(t)):
        raise ValueError("inputs must be finite")

    rt = centred_ranks(t)
    grid = enumerate_simplex(len(tables), bucket)
    W = np.array(grid)
    rows = max(1, _CHUNK_ELEMS // n)
    best_score, best_w, skipped = -np.inf, None, 0
    for start in range(0, len(grid), rows):
        combined = np.matmul(W[start:start + rows, None, :], P)[:, 0]
        if not np.all(np.isfinite(combined)):
            raise ValueError("inputs must be finite")
        scores = rank_correlation(centred_ranks(combined), rt)
        for i in np.flatnonzero(np.isnan(scores)):
            skipped += 1
            logger.debug("skipping constant-score candidate %s", grid[start + i])
        scores[np.isnan(scores)] = -np.inf  # constant candidates never win
        i = int(np.argmax(scores))  # the first maximum
        if scores[i] > best_score:
            best_score, best_w = scores[i], grid[start + i]
    if skipped:
        logger.info("grid search skipped %d constant-score candidates", skipped)
    if best_w is None:
        raise ValueError("every candidate produced constant scores; SRCC undefined")
    return EnsembleWeights(model_names=tuple(tb.model_name for tb in tables),
                           weights=tuple(best_w), bucket=bucket,
                           validation_srcc=best_score)


def apply_weights(weights: EnsembleWeights, tables) -> PredictionTable:
    """Per-video convex combination of the tables (raw, unclamped scores)."""
    names = tuple(tb.model_name for tb in tables)
    if names != weights.model_names:
        raise ValueError(f"table order {names} does not match weights {weights.model_names}")
    ids = list(tables[0].scores)
    combined = 0  # summed in table order, as `sum(w * s)` per video would
    for w, row in zip(weights.weights, _score_matrix(tables, ids)):
        combined = combined + w * row
    return PredictionTable(model_name="ensemble",
                           scores=dict(zip(ids, combined.tolist())),
                           coverage=dict.fromkeys(ids, "direct"))
