"""Collapse multiple per-row predictions into one score per video.

Median is the default strategy.  Videos with no rows at all (e.g. a
soundless video under an audio model) fall back to the mean of this model's
directly-aggregated scores and are marked as such.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

_AGG = {
    "median": statistics.median,
    "mean": lambda xs: sum(xs) / len(xs),
    "max": max,
    "min": min,
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

    agg = _AGG[strategy]
    direct = {vid: float(agg(list(rows))) for vid in ids
              if (rows := per_row_scores.get(vid))}
    if not direct:
        raise ValueError("no video has any prediction rows; fallback has no basis")
    fallback = sum(direct.values()) / len(direct)
    return PredictionTable(model_name=model_name,
                           scores={vid: direct.get(vid, fallback) for vid in ids},
                           coverage={vid: "direct" if vid in direct else "fallback"
                                     for vid in ids})


def clamp_unit(x: float) -> float:
    """[0, 1] clamp used only when scores are exported."""
    return min(1.0, max(0.0, x))
