"""Per-modality regressors built directly on numpy.

All models standardize features and absorb the intercept by centering the
targets, so weights live in standardized coordinates and the bias term is
never penalized.  Nothing here clamps predictions; score clamping is a
reporting concern handled by the harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .textmodel import GruRegressor


class SingularMatrixError(ValueError):
    """OLS normal equations are singular; ridge regularization would help."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries last-iterate info."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Standardizer:
    """Per-dimension z-scoring; constant dimensions map to exactly 0."""

    means: np.ndarray
    stds: np.ndarray  # zeros replaced by 1 at fit time

    def transform(self, X):
        """Rows along the last axis: one row, `(n, d)` or `(n, L, d)`."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[-1] != len(self.means):
            raise ValueError(f"expected {len(self.means)} features, got {X.shape[-1]}")
        return (X - self.means) / self.stds


def fit_standardizer(X) -> Standardizer:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need a non-empty row matrix")
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    return Standardizer(means=means, stds=stds)


# ---------------------------------------------------------------------------
# linear family
# ---------------------------------------------------------------------------

# the hyperparameters each linear kind reads
LINEAR_HYPER_KEYS = {"ols": set(), "ridge": {"lam"}, "lasso": {"lam", "tol", "max_sweeps"},
                     "bayes_ridge": {"max_iter", "tol", "fixed_alpha_noise", "fixed_lambda_prior"}}
LINEAR_KINDS = tuple(LINEAR_HYPER_KEYS)


@dataclass
class LinearModel:
    kind: str
    weights: np.ndarray  # in standardized feature space
    intercept: float
    hyper: dict
    standardizer: Standardizer
    history: dict = field(default_factory=dict)  # solver diagnostics

    def predict(self, X):
        """One score per row; an `(n, L, d)` block is n stacked gemvs, each
        equal bit for bit to the call on its own `(L, d)` slice."""
        Xs = self.standardizer.transform(X)
        return Xs @ self.weights + self.intercept


def _solve_spd(A, b):
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "normal equations are singular; use ridge with lam > 0") from None
    z = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, z)


def _lasso_cd(Xs, yc, lam, tol, max_sweeps):
    n, d = Xs.shape
    col_sq = (Xs * Xs).sum(axis=0) / n
    w = np.zeros(d)
    r = yc.copy()
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            w_old = w[j]
            rho = (Xs[:, j] @ r) / n + col_sq[j] * w_old
            w_new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if w_new != w_old:
                r += Xs[:, j] * (w_old - w_new)
                w[j] = w_new
                max_delta = max(max_delta, abs(w_new - w_old))
        if max_delta < tol:
            return w, sweep + 1
    raise ConvergenceError(
        f"lasso did not converge in {max_sweeps} sweeps",
        diagnostics={"max_delta": max_delta, "weights": w.tolist()},
    )


def _bayes_ridge(Xs, yc, hyper):
    """Evidence maximization: alternate the closed-form posterior mean with
    noise/prior precision re-estimation (gamma hyperpriors, constants 1e-6).
    """
    n, d = Xs.shape
    a1 = a2 = l1 = l2 = 1e-6
    max_iter = int(hyper.get("max_iter", 300))
    tol = float(hyper.get("tol", 1e-4))

    gram = Xs.T @ Xs
    Xty = Xs.T @ yc
    eigvals, V = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    Vty = V.T @ Xty

    fixed_noise = hyper.get("fixed_alpha_noise")
    fixed_prior = hyper.get("fixed_lambda_prior")
    y_var = float(yc @ yc) / n
    alpha = float(fixed_noise) if fixed_noise is not None else (1.0 / y_var if y_var > 0 else 1.0)
    lam = float(fixed_prior) if fixed_prior is not None else 1.0

    def posterior_mean(alpha, lam):
        return V @ (alpha * Vty / (alpha * eigvals + lam))

    def log_evidence(alpha, lam, mu, sse):
        logdet_A = float(np.sum(np.log(alpha * eigvals + lam)))
        return 0.5 * (d * np.log(lam) + n * np.log(alpha)
                      - alpha * sse - lam * float(mu @ mu)
                      - logdet_A - n * np.log(2.0 * np.pi))

    evidence = []
    for it in range(max_iter):
        mu = posterior_mean(alpha, lam)
        resid = yc - Xs @ mu
        sse = float(resid @ resid)
        evidence.append(log_evidence(alpha, lam, mu, sse))

        # EM-style re-estimation: monotone in the evidence, unlike the
        # fixed-point (effective-dof) variant which can dip by ~1e-9.
        den = alpha * eigvals + lam
        tr_cov = float(np.sum(1.0 / den))
        tr_xcovx = float(np.sum(eigvals / den))
        new_lam = lam if fixed_prior is not None else \
            (d + 2 * l1) / (float(mu @ mu) + tr_cov + 2 * l2)
        new_alpha = alpha if fixed_noise is not None else \
            (n + 2 * a1) / (sse + tr_xcovx + 2 * a2)

        rel = max(abs(new_lam - lam) / max(abs(lam), 1e-300),
                  abs(new_alpha - alpha) / max(abs(alpha), 1e-300))
        lam, alpha = new_lam, new_alpha
        if rel < tol:
            mu = posterior_mean(alpha, lam)
            resid = yc - Xs @ mu
            sse = float(resid @ resid)
            evidence.append(log_evidence(alpha, lam, mu, sse))
            return mu, {"alpha_noise": alpha, "lambda_prior": lam,
                        "iterations": it + 1, "log_evidence": evidence}
    raise ConvergenceError(
        f"bayes_ridge did not converge in {max_iter} iterations",
        diagnostics={"alpha_noise": alpha, "lambda_prior": lam, "log_evidence": evidence},
    )


def _rows_and_targets(X, y):
    """`X` and `y` as float arrays: a row matrix and one target per row, at
    least 2 rows, every number finite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y) or len(y) < 2:
        raise ValueError("need a row matrix with matching targets, >= 2 rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    return X, y


def check_linear_hyper(kind, hyper):
    """The range rules of `fit_linear`'s hyperparameters; an absent key takes
    its default, which passes."""
    if hyper.get("lam", 0.0) < 0:
        raise ValueError(f"{kind} lam must be >= 0")
    if hyper.get("max_sweeps", 1) < 1:
        raise ValueError("'max_sweeps' must be an integer >= 1")
    if not hyper.get("tol", 1.0) > 0:  # the stop test is `change < tol`
        raise ValueError(f"{kind} tol must be > 0")


def fit_linear(X, y, kind="ridge", hyper=None) -> LinearModel:
    """Fit one of ols / ridge / lasso / bayes_ridge on standardized features."""
    if kind not in LINEAR_KINDS:
        raise ValueError(f"unknown linear kind {kind!r}")
    X, y = _rows_and_targets(X, y)
    hyper = dict(hyper or {})
    check_linear_hyper(kind, hyper)

    std = fit_standardizer(X)
    Xs = std.transform(X)
    y_mean = float(y.mean())
    yc = y - y_mean

    history = {}
    if kind == "ols":
        w = _solve_spd(Xs.T @ Xs, Xs.T @ yc)
    elif kind == "ridge":
        lam = float(hyper.setdefault("lam", 1.0))
        gram = Xs.T @ Xs + lam * np.eye(Xs.shape[1])
        w = _solve_spd(gram, Xs.T @ yc)
    elif kind == "lasso":
        lam = float(hyper.setdefault("lam", 0.1))
        tol = float(hyper.setdefault("tol", 1e-7))
        max_sweeps = int(hyper.setdefault("max_sweeps", 10000))
        w, sweeps = _lasso_cd(Xs, yc, lam, tol, max_sweeps)
        history["sweeps"] = sweeps
    else:  # bayes_ridge
        w, history = _bayes_ridge(Xs, yc, hyper)
        hyper.setdefault("alpha_noise", history["alpha_noise"])
        hyper.setdefault("lambda_prior", history["lambda_prior"])

    return LinearModel(kind=kind, weights=w, intercept=y_mean,
                       hyper=hyper, standardizer=std, history=history)


# ---------------------------------------------------------------------------
# epsilon-SVR via SMO
# ---------------------------------------------------------------------------

SVR_KERNELS = ("rbf", "linear")


@dataclass
class SvrModel:
    kind = "svr"
    kernel: str
    gamma: float
    C: float
    epsilon: float
    support_vectors: np.ndarray  # standardized rows with nonzero dual coef
    dual_coefs: np.ndarray
    bias: float
    standardizer: Standardizer
    history: dict = field(default_factory=dict)

    def predict(self, X):
        """One score per row, like `LinearModel.predict`."""
        Xs = self.standardizer.transform(X)
        if len(self.dual_coefs) == 0:
            return np.full(Xs.shape[:-1], self.bias)
        K = _kernel_matrix(self.kernel, self.gamma, self.support_vectors, Xs)
        return self.dual_coefs @ K + self.bias


def _kernel_matrix(kernel, gamma, A, B):
    """K[..., i, j] = k(A[i], B[..., j, :]); B may stack row blocks."""
    AB = A @ np.swapaxes(B, -1, -2)
    if kernel == "linear":
        return AB
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=-1)[..., None, :] - 2.0 * AB
    return np.exp(-gamma * np.clip(sq, 0.0, None))


def check_svr_settings(kernel, C, epsilon, gamma, tol):
    """The range rules of `fit_svr`'s settings of the same names."""
    check_svr_model(kernel, C, epsilon, gamma)
    if not tol > 0:
        raise ValueError("svr tol must be > 0")


def check_svr_model(kernel, C, epsilon, gamma):
    """The range rules of the settings an `SvrModel` keeps (not the solver's `tol`)."""
    if kernel not in SVR_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if C <= 0 or epsilon < 0:
        raise ValueError("need C > 0 and epsilon >= 0")
    if not (gamma is None or gamma > 0):  # exp(+|gamma| d^2) is no kernel
        raise ValueError("'gamma' must be > 0 or null")


def fit_svr(X, y, kernel="rbf", gamma=None, C=1.0, epsilon=0.1,
            tol=1e-3, max_iter=1_000_000) -> SvrModel:
    """Solve the epsilon-insensitive dual by SMO on maximal-violating pairs.

    Holds the dual as one signed vector b = [a, -a*] of length 2n in the box
    [lo, hi] with lo = [0, -C] and hi = [C, 0] per half, under the equality
    constraint sum(b) = 0; beta = b[:n] + b[n:].  Stops when the max KKT
    violation drops to `tol`.
    """
    check_svr_settings(kernel, C, epsilon, gamma, tol)
    X, y = _rows_and_targets(X, y)

    std = fit_standardizer(X)
    Xs = std.transform(X)
    n, d = Xs.shape
    if gamma is None:
        total_var = float(Xs.var())
        gamma = 1.0 / (d * total_var) if total_var > 0 else 1.0 / d

    K = _kernel_matrix(kernel, gamma, Xs, Xs)
    rows, diag = list(K), K.diagonal().tolist()
    C = float(C)
    lo, hi = [0.0] * n + [-C] * n, [C] * n + [0.0] * n
    b = [0.0] * (2 * n)
    u = np.zeros(n)  # current sum_j beta_j K_ij
    r, vals, step = np.empty(n), np.empty(2 * n), np.empty(n)
    vals_a, vals_a_star = vals[:n], vals[n:]
    # Selection adds 0.0 where b has room to grow (I_up) or to shrink (I_low)
    # and -inf / +inf elsewhere; finite inputs keep vals finite, so the
    # penalized entries come out as the -inf / +inf the rule excludes.
    pen_up, pen_low = np.zeros(2 * n), np.zeros(2 * n)
    pen_up[n:], pen_low[:n] = -np.inf, np.inf
    up, low = np.empty(2 * n), np.empty(2 * n)

    iterations = 0
    while True:
        # -G per variable: y - u - eps on the a half, y - u + eps on the a* half
        np.subtract(y, u, out=r)
        np.subtract(r, epsilon, out=vals_a)
        np.add(r, epsilon, out=vals_a_star)
        np.add(vals, pen_up, out=up)
        np.add(vals, pen_low, out=low)
        # argmax/argmin return the first extreme: ties go to a, then the lowest index.
        p, q = int(up.argmax()), int(low.argmin())
        # read from vals, which keeps the sign of a zero (-0.0 + 0.0 is +0.0);
        # neither set is empty, since sum(b) = 0 keeps some b below hi and some above lo
        m_val, M_val = vals.item(p), vals.item(q)
        if m_val - M_val <= tol:
            break
        if iterations >= max_iter:
            raise ConvergenceError(
                f"SVR SMO did not converge in {max_iter} pair updates",
                diagnostics={"kkt_violation": m_val - M_val},
            )
        iterations += 1

        i, j = p % n, q % n
        eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
        t = min((m_val - M_val) / max(eta, 1e-12), hi[p] - b[p], b[q] - lo[q])
        if t <= 0.0:
            break  # numerically stuck at the box; violation is within noise
        b[p] += t
        b[q] -= t
        for k in (p, q):
            pen_up[k] = 0.0 if b[k] < hi[k] else -np.inf
            pen_low[k] = 0.0 if b[k] > lo[k] else np.inf
        # u += t * (K[i] - K[j]) in that order; another grouping changes the bits
        np.subtract(rows[i], rows[j], out=step)
        step *= t
        u += step

    # both exits leave b unchanged since (m_val, M_val) were selected
    bias = 0.5 * (m_val + M_val)
    b = np.array(b)
    beta = b[:n] + b[n:]
    sv = np.abs(beta) > 1e-12
    return SvrModel(kernel=kernel, gamma=float(gamma), C=C, epsilon=float(epsilon),
                    support_vectors=Xs[sv], dual_coefs=beta[sv], bias=float(bias),
                    standardizer=std,
                    history={"iterations": iterations,
                             "kkt_violation": float(max(m_val - M_val, 0.0))})


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

# the architecture fields of a GRU file, each a `GruRegressor` keyword
_GRU_FIELDS = ("input_dim", "hidden_units", "dense_widths", "recurrent_dropout_rate",
               "dense_dropout_rate", "seed")


def model_to_dict(model) -> dict:
    if model.kind == "gru":
        return {"family": "gru", **{key: getattr(model, key) for key in _GRU_FIELDS},
                "dense_widths": list(model.dense_widths), "training_log": model.training_log,
                "params": {k: v.tolist() for k, v in model.params.items()}}
    std = {"means": model.standardizer.means.tolist(),
           "stds": model.standardizer.stds.tolist()}
    if model.kind == "svr":
        return {"family": "svr", "kernel": model.kernel, "gamma": model.gamma,
                "C": model.C, "epsilon": model.epsilon,
                "support_vectors": model.support_vectors.tolist(),
                "dual_coefs": model.dual_coefs.tolist(), "bias": model.bias,
                "standardizer": std}
    return {"family": "linear", "kind": model.kind, "weights": model.weights.tolist(),
            "intercept": model.intercept, "hyper": model.hyper, "standardizer": std}


def _array(value, shape, what):
    """JSON numbers (no bools or strings) as a finite float array of `shape`;
    `[]` is an empty matrix of any width, and `_array(x, (), what)` reads a number."""
    arr = np.asarray(value, dtype=object)
    if not all(type(v) in (int, float) for v in arr.flat):  # type(True) is bool
        raise ValueError(f"{what} holds a non-numeric entry")
    try:
        arr = arr.astype(float)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{what} holds a non-finite number") from None
    arr = arr.reshape(shape) if arr.size == 0 and 0 in shape else arr
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):  # json reads NaN, Infinity and 1e400
        raise ValueError(f"{what} holds a non-finite number")
    return arr


def model_from_dict(doc) -> LinearModel | SvrModel | GruRegressor:
    """The model `model_to_dict` wrote; a malformed document raises ValueError,
    or KeyError or TypeError for a missing or mistyped entry.  A GRU's params
    must have the names and shapes of a fresh model of the same architecture,
    and an SVR's settings must pass `check_svr_model`."""
    if not isinstance(doc, dict):
        raise ValueError("a model must be a JSON object")
    if doc["family"] == "gru":
        for key in ("recurrent_dropout_rate", "dense_dropout_rate"):
            _array(doc[key], (), repr(key))
        if not isinstance(doc.get("training_log", []), list):
            raise ValueError("'training_log' must be a list")
        model = GruRegressor(**{key: doc[key] for key in _GRU_FIELDS})
        params = dict(doc["params"])
        unmatched = sorted(set(params) ^ set(model.params))
        if unmatched:
            what = "missing" if unmatched[0] in model.params else "unknown"
            raise ValueError(f"params: {what} key {unmatched[0]!r}")
        model.params = {name: _array(value, model.params[name].shape, f"params: {name!r}")
                        for name, value in params.items()}
        model.training_log = doc.get("training_log", [])
        return model
    if not (doc["family"] == "linear" and doc["kind"] in LINEAR_KINDS
            or doc["family"] == "svr" and doc["kernel"] in SVR_KERNELS):
        raise ValueError(f"unknown model: family {doc['family']!r}, kind {doc.get('kind')!r}, "
                         f"kernel {doc.get('kernel')!r}")
    d = np.size(doc["standardizer"]["means"])
    std = Standardizer(means=_array(doc["standardizer"]["means"], (d,), "standardizer 'means'"),
                       stds=_array(doc["standardizer"]["stds"], (d,), "standardizer 'stds'"))
    if doc["family"] == "linear":
        return LinearModel(kind=doc["kind"], weights=_array(doc["weights"], (d,), "'weights'"),
                           intercept=float(_array(doc["intercept"], (), "'intercept'")),
                           hyper=dict(doc["hyper"]), standardizer=std)
    n = np.size(doc["dual_coefs"])
    model = SvrModel(kernel=doc["kernel"], gamma=float(_array(doc["gamma"], (), "'gamma'")),
                     C=float(_array(doc["C"], (), "'C'")),
                     epsilon=float(_array(doc["epsilon"], (), "'epsilon'")),
                     support_vectors=_array(doc["support_vectors"], (n, d), "'support_vectors'"),
                     dual_coefs=_array(doc["dual_coefs"], (n,), "'dual_coefs'"),
                     bias=float(_array(doc["bias"], (), "'bias'")), standardizer=std)
    if not model.gamma > 0:  # a file holds the resolved gamma, never null
        raise ValueError("'gamma' must be > 0")
    check_svr_model(model.kernel, model.C, model.epsilon, model.gamma)
    return model


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)


def load_model(path):
    """Read a model file; malformed content raises ValueError naming `path`."""
    with open(path) as fh:
        try:
            return model_from_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
        except (ValueError, TypeError) as exc:  # invalid JSON included
            raise ValueError(f"{path}: {exc}") from None
