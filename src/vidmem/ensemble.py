"""Exhaustive weighted-average ensembling on the bucketed probability simplex.

Weights are enumerated as integer bucket counts (so the sum-to-one constraint
is exact by construction) and scored by validation SRCC; ties break toward
the lexicographically smallest weight vector.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .aggregate import PredictionTable
from .corpus import LabelTable
from .metrics import ConstantInputError, srcc

logger = logging.getLogger(__name__)


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

    best = None
    skipped = 0
    for w in enumerate_simplex(len(tables), bucket):
        combined = np.asarray(w) @ P
        try:
            score = srcc(combined, t)
        except ConstantInputError:
            skipped += 1
            logger.debug("skipping constant-score candidate %s", w)
            continue
        if best is None or score > best[0]:
            best = (score, w)
    if skipped:
        logger.info("grid search skipped %d constant-score candidates", skipped)
    if best is None:
        raise ValueError("every candidate produced constant scores; SRCC undefined")
    score, w = best
    return EnsembleWeights(model_names=tuple(tb.model_name for tb in tables),
                           weights=tuple(w), bucket=bucket, validation_srcc=score)


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
