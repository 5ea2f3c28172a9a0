"""Exhaustive weighted-average ensembling on the bucketed probability simplex.

Weights are enumerated as integer bucket counts (so the sum-to-one constraint
is exact by construction) and scored by validation SRCC; ties break toward
the lexicographically smallest weight vector.  The search ranks the truth
once and scores the candidates a bounded chunk at a time, ranking every row
of a chunk in one call; the scores equal scalar `srcc` bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .aggregate import PredictionTable
from .corpus import LabelTable
from .metrics import fractional_ranks

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


def _bucket_count(bucket: float) -> int:
    if not (0.0 < bucket <= 1.0):
        raise ValueError(f"bucket must lie in (0, 1], got {bucket}")
    b = 1.0 / bucket
    if abs(b - round(b)) > 1e-9:
        raise ValueError(f"1/bucket must be an integer, got {b}")
    return int(round(b))


def enumerate_simplex(k: int, bucket: float = 0.05) -> list[list[float]]:
    """All k-vectors of non-negative bucket multiples summing to 1, in
    lexicographic order; count equals C(B+k-1, k-1) for B = 1/bucket."""
    if k < 1:
        raise ValueError("k must be >= 1")
    B = _bucket_count(bucket)
    out: list[list[float]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining / B])
            return
        for c in range(remaining + 1):
            rec(prefix + [c / B], remaining - c, slots - 1)

    rec([], B, k)
    assert len(out) == math.comb(B + k - 1, k - 1)
    return out


def grid_search(tables, truth: LabelTable, bucket: float = 0.05) -> EnsembleWeights:
    """Find the simplex grid point maximizing SRCC against `truth`.

    The truth is ranked and centred once.  Candidates are scored in chunks of
    at most `_CHUNK_ELEMS` candidate-by-id elements (one candidate per chunk
    when a single row is longer): each chunk's combined scores are ranked row
    by row, centred, and correlated with the truth ranks in one product.
    Each combined row is built exactly as `srcc` would see it, and centred
    ranks give exact sums (see `metrics`), so every candidate's score is
    bit-identical to `srcc(np.asarray(w) @ P, t)` for up to about 2*10**5 ids.

    Candidates whose combined scores are constant (undefined SRCC) are
    skipped with a log entry.  Deterministic: the first maximizer in
    lexicographic order wins.
    """
    if not tables:
        raise ValueError("need at least one prediction table")
    ids = list(truth.scores)
    P = np.empty((len(tables), len(ids)))
    for m, table in enumerate(tables):
        missing = [vid for vid in ids if vid not in table.scores]
        if missing:
            raise ValueError(f"table {table.model_name!r} missing ids {missing[:5]}")
        P[m] = [table.scores[vid] for vid in ids]
    t = np.array([truth.scores[vid] for vid in ids])
    n = len(ids)
    if n < 2:
        raise ValueError("need at least two pairs")
    if not np.all(np.isfinite(t)):
        raise ValueError("inputs must be finite")

    mean_rank = (n + 1) / 2.0  # the exact mean of any n fractional ranks
    rt = fractional_ranks(t) - mean_rank
    var_t = float(rt @ rt)
    grid = enumerate_simplex(len(tables), bucket)
    rows = max(1, _CHUNK_ELEMS // n)
    best_score, best_w, skipped = -np.inf, None, 0
    for start in range(0, len(grid), rows):
        chunk = grid[start:start + rows]
        combined = np.stack([np.asarray(w) @ P for w in chunk])
        if not np.all(np.isfinite(combined)):
            raise ValueError("inputs must be finite")
        rp = fractional_ranks(combined) - mean_rank
        var_p = np.einsum("ij,ij->i", rp, rp)
        cov = rp @ rt
        live = (var_p != 0.0) & (var_t != 0.0)
        for i in np.flatnonzero(~live):
            skipped += 1
            logger.debug("skipping constant-score candidate %s", chunk[i])
        scores = np.full(len(chunk), -np.inf)  # constant candidates never win
        scores[live] = cov[live] / np.sqrt(var_p[live] * var_t)
        i = int(np.argmax(scores))  # the first maximum
        if scores[i] > best_score:
            best_score, best_w = scores[i], chunk[i]
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
    for table in tables[1:]:
        missing = [vid for vid in ids if vid not in table.scores]
        if missing:
            raise ValueError(f"table {table.model_name!r} missing ids {missing[:5]}")
    scores = {
        vid: sum(w * tb.scores[vid] for w, tb in zip(weights.weights, tables))
        for vid in ids
    }
    return PredictionTable(model_name="ensemble",
                           scores=scores,
                           coverage={vid: "direct" for vid in ids},
                           aggregation="weighted_average")
