"""Collapse multiple per-row predictions into one score per video.

Median is the default strategy.  Videos with no rows at all (e.g. a
soundless video under an audio model) fall back to the mean of this model's
directly-aggregated scores and are marked as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def by_length(starts, counts):
    """Bucket the groups of an offsets-plus-values layout, group k holding
    the `counts[k]` entries from `starts[k]` on, by their entry count, so that
    arithmetic over each group's entries runs as one numpy call per bucket.

    Yields `(positions, index)` once per distinct count L, ascending:
    `positions` holds the indices of the L-entry groups in input order and
    `index` their `(n_L, L)` entry offsets.  A reduction along axis 1 of
    `column[index]`, or a stacked 3-D matmul over `values[index]`, gives
    each group the bits of the same call on that group's own entries.
    """
    for length in np.flatnonzero(np.bincount(counts)).tolist():
        positions = np.flatnonzero(counts == length)
        yield positions, starts[positions, None] + np.arange(length)


def _median(block):
    """statistics.median of each line: the middle of the stably sorted
    line, or the mean of the middle two."""
    s = np.sort(block, axis=1, kind="stable")
    h = s.shape[1] // 2
    return s[:, h] if s.shape[1] % 2 else (s[:, h - 1] + s[:, h]) / 2


# Each strategy maps an (n, L) block, one video's rows per line, to the n
# scores that the per-video statistics.median, sum / len, max and min give;
# argmax and argmin pick the first extreme, as max and min do (0.0 vs -0.0).
_AGG = {
    "median": _median,
    "mean": lambda block: np.array([sum(xs) / len(xs) for xs in block.tolist()]),
    "max": lambda block: block[np.arange(len(block)), block.argmax(axis=1)],
    "min": lambda block: block[np.arange(len(block)), block.argmin(axis=1)],
}
STRATEGIES = tuple(_AGG)


@dataclass(frozen=True)
class PredictionTable:
    model_name: str
    scores: dict[str, float]
    coverage: dict[str, str]  # video id -> "direct" | "fallback"


def aggregate_rows(per_row_scores, strategy="median", id_universe=None,
                   model_name="model") -> PredictionTable:
    """Aggregate per-row scores per video over `id_universe`.

    Videos missing from `per_row_scores` (or with empty row lists) receive
    the mean of all directly aggregated scores, with coverage "fallback".
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if id_universe is None:
        id_universe = per_row_scores.keys()
    ids = list(id_universe)
    if not ids:
        raise ValueError("empty id universe")

    rows = {vid: r for vid in ids if (r := per_row_scores.get(vid)) is not None and len(r)}
    if not rows:
        raise ValueError("no video has any prediction rows; fallback has no basis")
    counts = np.fromiter(map(len, rows.values()), np.intp, len(rows))
    column = np.concatenate(list(rows.values())).astype(float, copy=False)
    scores = np.empty(len(rows))
    for positions, index in by_length(np.cumsum(counts) - counts, counts):
        scores[positions] = _AGG[strategy](column[index])
    direct = dict(zip(rows, scores.tolist()))
    fallback = sum(direct.values()) / len(direct)
    return PredictionTable(model_name=model_name,
                           scores={vid: direct.get(vid, fallback) for vid in ids},
                           coverage={vid: "direct" if vid in direct else "fallback"
                                     for vid in ids})
