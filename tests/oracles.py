"""Independent reference implementations used only to check the library.

Each oracle deliberately takes a different route than the code under test:
SRCC by sort-and-scan ranking plus the textbook Pearson formula, the SVR
dual by projected gradient with an exact simplex-style projection, ridge by
explicit matrix inversion.
"""

import numpy as np


def ranks_oracle(v):
    """1-based ranks by stable sort; each tie run gets its average rank."""
    v = list(map(float, v))
    order = sorted(range(len(v)), key=lambda i: (v[i], i))
    out = [0.0] * len(v)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            out[order[k]] = avg
        i = j + 1
    return out


def srcc_oracle(a, b):
    """Rank via stable sort with average-tie correction, then direct Pearson."""
    ra, rb = ranks_oracle(a), ranks_oracle(b)
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    da = sum((x - ma) ** 2 for x in ra) ** 0.5
    db = sum((y - mb) ** 2 for y in rb) ** 0.5
    return num / (da * db)


def ridge_closed_form(X, y, lam):
    """(Xs'Xs + lam I)^-1 Xs' yc with its own standardization and centering."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    mu, sd = X.mean(0), X.std(0)
    sd = np.where(sd == 0, 1.0, sd)
    Xs = (X - mu) / sd
    yc = y - y.mean()
    w = np.linalg.inv(Xs.T @ Xs + lam * np.eye(X.shape[1])) @ (Xs.T @ yc)
    return w, float(y.mean())


def svr_dual_objective(beta, K, y, epsilon):
    return float(-0.5 * beta @ K @ beta + y @ beta - epsilon * np.sum(np.abs(beta)))


def svr_qp_oracle(K, y, C, epsilon, max_iter=200_000, tol=1e-8):
    """Projected gradient on the split (a, a*) box with the equality
    constraint sum(a) - sum(a*) = 0; projection is exact via bisection on
    the constraint multiplier."""
    n = len(y)
    s = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])

    def grad(v):
        Kb = K @ (v[:n] - v[n:])
        return np.concatenate([Kb, -Kb]) + p

    def project(w):
        lo, hi = -1e9, 1e9
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if s @ np.clip(w - mid * s, 0.0, C) > 0:
                lo = mid
            else:
                hi = mid
        return np.clip(w - 0.5 * (lo + hi) * s, 0.0, C)

    lip = float(np.linalg.eigvalsh(K).max()) + 1e-9
    step = 0.5 / lip
    v = np.zeros(2 * n)
    prev_obj = None
    for it in range(max_iter):
        v = project(v - step * grad(v))
        if it % 100 == 0:
            beta = v[:n] - v[n:]
            obj = svr_dual_objective(beta, K, y, epsilon)
            if prev_obj is not None and abs(obj - prev_obj) < tol:
                break
            prev_obj = obj
    return v[:n] - v[n:]


def decay_update_round(log, target_duration, alpha, m):
    """One textbook (alpha, m) update from arbitrary state."""
    num = den = 0.0
    for vid, obs in log.entries.items():
        lr = [np.log(o.delay_seconds / target_duration) for o in obs]
        x = [o.recognized for o in obs]
        n = len(obs)
        num += sum(l * (xi - m[vid]) for l, xi in zip(lr, x)) / n
        den += sum(l * l for l in lr) / n
    new_alpha = num / den if den != 0 else alpha
    new_m = {}
    for vid, obs in log.entries.items():
        new_m[vid] = sum(o.recognized - new_alpha * np.log(o.delay_seconds / target_duration)
                         for o in obs) / len(obs)
    return new_alpha, new_m
