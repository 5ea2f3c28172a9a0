"""Alternating fit of a global memory decay rate and per-video memorability.

The model says the probability of recognizing video i after delay t is
m_T(i) + alpha * log(t / T).  Fitting alternates a least-squares update of
alpha (given the current m values) with the closed-form per-video update of
m_T (given alpha).  m values are left unclamped during and after the fit;
clamping into [0, 1] happens only when labels are exported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregate import by_length
from .corpus import AnnotationLog, LabelTable, clamp_unit

DEGENERATE_WARNING = "all delays equal the target duration; decay rate not identifiable"


@dataclass(frozen=True)
class DecayFit:
    alpha: float
    target_duration: float
    m_t: dict[str, float]
    alpha_trajectory: tuple[float, ...]
    warnings: tuple[str, ...] = field(default=())

    @property
    def iterations_run(self) -> int:
        return len(self.alpha_trajectory)


def fit_decay(log: AnnotationLog, target_duration: float, iterations: int = 10) -> DecayFit:
    """Fit decay rate alpha and per-video m_T by `iterations` alternating updates.

    m_T(i) starts at the raw hit rate; each iteration updates alpha first
    (ratio of per-video-weighted cross terms to squared log-delay terms),
    then every m_T(i).  The per-video statistics come from `log.groups`;
    `m_t` keeps the log's video order.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not (target_duration > 0):
        raise ValueError("target duration must be positive")
    videos, order, counts = log.groups
    if not videos:
        raise ValueError("empty annotation log")

    x = log.recognized.astype(float)
    with np.errstate(divide="ignore", over="ignore"):  # t/T overflowing or 0
        lr = np.log(log.delay_seconds / target_duration)
    if not np.all(np.isfinite(lr)):
        raise ValueError(f"log(delay / target duration) is not finite for target duration "
                         f"{target_duration!r}")
    # Per-video sufficient statistics, in video order: the means of x,
    # log(t/T), x log(t/T) and log(t/T)^2.  `by_length` gives the videos
    # with L trials one (n_L, L) block of offsets into `order`, and a
    # .mean(axis=1) over a column gathered through it sums each video's
    # trials in the order of a per-video array.  The alpha denominator and
    # the log-ratio sums never change across iterations.
    starts = np.cumsum(counts) - counts
    hit_rate, mean_lr, mean_xlr, mean_lr2 = (np.empty(len(videos)) for _ in range(4))
    for positions, index in by_length(starts, counts):
        trials = order[index]
        xb, lb = x[trials], lr[trials]
        hit_rate[positions] = xb.mean(axis=1)
        mean_lr[positions] = lb.mean(axis=1)
        mean_xlr[positions] = (xb * lb).mean(axis=1)
        mean_lr2[positions] = (lb * lb).mean(axis=1)

    denominator = mean_lr2.sum()
    degenerate = denominator == 0.0

    alpha = 0.0
    m = hit_rate.copy()
    trajectory = []
    for _ in range(iterations):
        if not degenerate:
            alpha = (mean_xlr.sum() - float(m @ mean_lr)) / denominator
        m = hit_rate - alpha * mean_lr
        trajectory.append(alpha)

    warnings = (DEGENERATE_WARNING,) if degenerate else ()
    return DecayFit(
        alpha=alpha,
        target_duration=target_duration,
        m_t=dict(zip(videos, m.tolist())),
        alpha_trajectory=tuple(trajectory),
        warnings=warnings,
    )


def adjust_labels(fit: DecayFit, term: str = "short") -> LabelTable:
    """Export fitted m_T values, clamped into [0, 1], as a label table."""
    return LabelTable(term=term, scores={vid: clamp_unit(m) for vid, m in fit.m_t.items()})
