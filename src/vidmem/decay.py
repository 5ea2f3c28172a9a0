"""Alternating fit of a global memory decay rate and per-video memorability.

The model says the probability of recognizing video i after delay t is
m_T(i) + alpha * log(t / T).  Fitting alternates a least-squares update of
alpha (given the current m values) with the closed-form per-video update of
m_T (given alpha).  m values are left unclamped during and after the fit;
clamping into [0, 1] happens only when labels are exported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregate import clamp_unit
from .corpus import AnnotationLog, LabelTable

DEGENERATE_WARNING = "all delays equal the target duration; decay rate not identifiable"


@dataclass(frozen=True)
class DecayFit:
    alpha: float
    target_duration: float
    m_t: dict[str, float]
    iterations_run: int
    alpha_trajectory: tuple[float, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.iterations_run != len(self.alpha_trajectory):
            raise ValueError("iterations_run must match alpha_trajectory length")


def fit_decay(log: AnnotationLog, target_duration: float, iterations: int = 10,
              alpha_tolerance: float | None = None) -> DecayFit:
    """Fit decay rate alpha and per-video m_T by alternating updates.

    m_T(i) starts at the raw hit rate; each iteration updates alpha first
    (ratio of per-video-weighted cross terms to squared log-delay terms),
    then every m_T(i).  `alpha_tolerance`, when given, stops early once the
    change in alpha drops below it; the default runs all iterations.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not (target_duration > 0):
        raise ValueError("target duration must be positive")
    if not log.entries:
        raise ValueError("empty annotation log")

    video_ids = list(log.entries)
    # Per-video sufficient statistics; the alpha denominator and the log-ratio
    # sums never change across iterations.
    hit_rate = np.empty(len(video_ids))
    mean_lr = np.empty(len(video_ids))      # (1/n_i) sum_j log(t_j/T)
    mean_xlr = np.empty(len(video_ids))     # (1/n_i) sum_j x_j * log(t_j/T)
    mean_lr2 = np.empty(len(video_ids))     # (1/n_i) sum_j log(t_j/T)^2
    for k, vid in enumerate(video_ids):
        obs = log.entries[vid]
        x = np.array([o.recognized for o in obs], dtype=float)
        lr = np.log(np.array([o.delay_seconds for o in obs]) / target_duration)
        hit_rate[k] = x.mean()
        mean_lr[k] = lr.mean()
        mean_xlr[k] = (x * lr).mean()
        mean_lr2[k] = (lr * lr).mean()

    denominator = mean_lr2.sum()
    degenerate = denominator == 0.0

    alpha = 0.0
    m = hit_rate.copy()
    trajectory = []
    for _ in range(iterations):
        prev_alpha = alpha
        if not degenerate:
            alpha = (mean_xlr.sum() - float(m @ mean_lr)) / denominator
        m = hit_rate - alpha * mean_lr
        trajectory.append(alpha)
        if alpha_tolerance is not None and abs(alpha - prev_alpha) < alpha_tolerance:
            break

    warnings = (DEGENERATE_WARNING,) if degenerate else ()
    return DecayFit(
        alpha=alpha,
        target_duration=target_duration,
        m_t={vid: float(m[k]) for k, vid in enumerate(video_ids)},
        iterations_run=len(trajectory),
        alpha_trajectory=tuple(trajectory),
        warnings=warnings,
    )


def adjust_labels(fit: DecayFit, term: str = "short") -> LabelTable:
    """Export fitted m_T values, clamped into [0, 1], as a label table."""
    return LabelTable(term=term, scores={vid: clamp_unit(m) for vid, m in fit.m_t.items()})
