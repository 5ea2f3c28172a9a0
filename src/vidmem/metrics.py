"""Spearman's rank correlation with fractional (average) tie ranks.

The shortcut 6*sum(d^2)/(n(n^2-1)) formula is invalid under ties, so SRCC is
always computed as the Pearson correlation of the two rank vectors.

Ranks are computed along the last axis, so a 2-d array ranks each row
independently; `ensemble.grid_search` ranks whole chunks of candidates this
way.  Fractional ranks are multiples of 0.5 and their mean is exactly
(n + 1) / 2, so the centred ranks, their products and every partial sum of
those products are exact in float64 while n(n^2 - 1) / 12 < 2**51, i.e. for
n up to about 2*10**5.  In that range `srcc` gives bit-identical results for
any summation order.
"""

from __future__ import annotations

import numpy as np


class ConstantInputError(ValueError):
    """Raised when either input has no rank variance; correlation undefined."""


def fractional_ranks(values) -> np.ndarray:
    """1-based ranks along the last axis; tied values all receive the mean of
    their rank run."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    order = np.argsort(v, axis=-1, kind="stable")
    s = np.take_along_axis(v, order, axis=-1)
    pos = np.arange(n)
    # run boundaries in sorted order: a run starts where the value changes
    starts = np.ones(v.shape, dtype=bool)
    starts[..., 1:] = s[..., 1:] != s[..., :-1]
    ends = np.ones(v.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(v.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return ranks


def srcc(predictions, truths) -> float:
    """Spearman rank correlation between two parallel score lists."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError("inputs must be parallel 1-d lists")
    if len(p) < 2:
        raise ValueError("need at least two pairs")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("inputs must be finite")

    rp = fractional_ranks(p)
    rt = fractional_ranks(t)
    rp_c = rp - rp.mean()
    rt_c = rt - rt.mean()
    var_p = float(rp_c @ rp_c)
    var_t = float(rt_c @ rt_c)
    if var_p == 0.0 or var_t == 0.0:
        raise ConstantInputError("constant input: rank correlation undefined")
    return float(rp_c @ rt_c) / np.sqrt(var_p * var_t)
