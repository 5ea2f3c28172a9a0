"""Caption pipeline: tokenizer, word-vector lookup, and a GRU regressor
(dense head, inverted dropout, Adam, early stopping) implemented directly in
numpy with hand-written backprop through time.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .corpus import WordVectorTable

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class TokenizeError(ValueError):
    """Caption produced no tokens."""


class TrainingDivergedError(RuntimeError):
    """A training or validation loss became non-finite."""


def tokenize(caption: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    if not caption or not caption.strip():
        raise TokenizeError("empty caption")
    tokens = caption.lower().translate(_PUNCT_TABLE).split()
    if not tokens:
        raise TokenizeError(f"caption {caption!r} contains no tokens")
    return tokens


def embed(tokens, table: WordVectorTable) -> np.ndarray:
    """The (number of tokens, dim) vectors of `tokens`; an unknown token is a
    zero vector."""
    vectors = np.zeros((len(tokens), table.dimension))
    for i, tok in enumerate(tokens):
        vec = table.get(tok)
        if vec is not None:
            vectors[i] = vec
    return vectors


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 64
    max_epochs: int = 150
    patience: int = 10
    validation_fraction: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        _check_integer("batch_size", self.batch_size, 1)
        _check_integer("max_epochs", self.max_epochs, 1)
        _check_integer("patience", self.patience, 1)
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("'validation_fraction' must lie in [0, 1)")


def _check_integer(key, value, least):
    if type(value) is not int or value < least:  # type(True) is bool
        raise ValueError(f"{key!r} must be an integer >= {least}")


def check_architecture(hidden_units, dense_widths, recurrent_dropout_rate,
                       dense_dropout_rate):
    """The range rules of the `GruRegressor` settings of the same names."""
    _check_integer("hidden_units", hidden_units, 1)
    if not (isinstance(dense_widths, (list, tuple))
            and all(type(w) is int and w > 0 for w in dense_widths)):
        raise ValueError("'dense_widths' must be a list of positive integers")
    if tuple(dense_widths)[-1:] != (1,):
        raise ValueError("final dense width must be 1")
    if not (0.0 <= recurrent_dropout_rate < 1.0 and 0.0 <= dense_dropout_rate < 1.0):
        raise ValueError("dropout rates must lie in [0, 1)")


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class GruRegressor:
    """GRU over a variable-length embedding sequence, then a dense ReLU head.

    Gates follow the usual convention:
        z = sigmoid(x Wz + h Uz + bz)
        r = sigmoid(x Wr + h Ur + br)
        c = tanh(x Wh + (r*h) Uh + bh)
        h' = (1 - z)*h + z*c
    The final hidden state feeds affine layers of the configured widths with
    ReLU on all but the last.  Dropout is inverted (scaled at train time).
    """

    kind = "gru"

    def __init__(self, input_dim, hidden_units=64, dense_widths=(32, 16, 8, 1),
                 recurrent_dropout_rate=0.8, dense_dropout_rate=0.25,
                 seed=0, train_config: TrainConfig | None = None):
        _check_integer("input_dim", input_dim, 1)
        check_architecture(hidden_units, dense_widths, recurrent_dropout_rate,
                           dense_dropout_rate)
        _check_integer("seed", seed, 0)
        self.input_dim = input_dim
        self.hidden_units = hidden_units
        self.dense_widths = tuple(dense_widths)
        self.recurrent_dropout_rate = recurrent_dropout_rate
        self.dense_dropout_rate = dense_dropout_rate
        self.seed = seed
        self.train_config = train_config or TrainConfig()
        self.rng = np.random.default_rng(seed)
        self.params = self._init_params(self.rng)
        self.training_log: list[dict] = []

    def _init_params(self, rng):
        D, H = self.input_dim, self.hidden_units
        params = {}
        for gate in ("z", "r", "h"):
            params[f"W{gate}"] = _glorot(rng, D, H, (D, H))
            params[f"U{gate}"] = _glorot(rng, H, H, (H, H))
            params[f"b{gate}"] = np.zeros(H)
        widths = (H,) + self.dense_widths
        for k in range(len(self.dense_widths)):
            params[f"dW{k}"] = _glorot(rng, widths[k], widths[k + 1], (widths[k], widths[k + 1]))
            params[f"db{k}"] = np.zeros(widths[k + 1])
        return params

    # -- forward / backward ------------------------------------------------

    def forward(self, vectors, train=False, rng=None):
        """Score one sequence; returns (score, cache for backward).  Dropout
        masks are multipliers, 1.0 with no draw when off: masks[0] drops the
        final hidden state and masks[k + 1] the output of dense layer k."""
        X = np.asarray(vectors, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected a non-empty (steps, {self.input_dim}) array")
        p = self.params
        h = np.zeros(self.hidden_units)
        steps = []
        for x in X:
            z = _sigmoid(x @ p["Wz"] + h @ p["Uz"] + p["bz"])
            r = _sigmoid(x @ p["Wr"] + h @ p["Ur"] + p["br"])
            c = np.tanh(x @ p["Wh"] + (r * h) @ p["Uh"] + p["bh"])
            steps.append((x, h, z, r, c))
            h = (1.0 - z) * h + z * c

        masks = [_dropout_mask(h.shape, self.recurrent_dropout_rate, train, rng)]
        v = h * masks[0]
        dense = []
        n_dense = len(self.dense_widths)
        for k in range(n_dense):
            pre = v @ p[f"dW{k}"] + p[f"db{k}"]
            dense.append((v, pre))
            if k < n_dense - 1:
                masks.append(_dropout_mask(pre.shape, self.dense_dropout_rate, train, rng))
                v = np.maximum(pre, 0.0) * masks[-1]
        return float(pre[0]), {"steps": steps, "masks": masks, "dense": dense}

    def backward(self, cache, dscore):
        """Gradients of (dscore * score) w.r.t. every parameter."""
        p = self.params
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        n_dense = len(self.dense_widths)

        dv = np.array([dscore])
        for k in reversed(range(n_dense)):
            v_in, pre = cache["dense"][k]
            dpre = dv * cache["masks"][k + 1] * (pre > 0.0) if k < n_dense - 1 else dv
            grads[f"dW{k}"] += np.outer(v_in, dpre)
            grads[f"db{k}"] += dpre
            dv = dpre @ p[f"dW{k}"].T

        dh = dv * cache["masks"][0]
        for x, h_prev, z, r, c in reversed(cache["steps"]):
            dc_pre = dh * z * (1.0 - c * c)
            grads["Wh"] += np.outer(x, dc_pre)
            grads["Uh"] += np.outer(r * h_prev, dc_pre)
            grads["bh"] += dc_pre
            tmp = dc_pre @ p["Uh"].T
            dh_prev = dh * (1.0 - z) + tmp * r
            # z before r: the order of the dh_prev sum is part of the result
            for gate, g, dg in (("z", z, dh * (c - h_prev)), ("r", r, tmp * h_prev)):
                dg_pre = dg * g * (1.0 - g)
                grads[f"W{gate}"] += np.outer(x, dg_pre)
                grads[f"U{gate}"] += np.outer(h_prev, dg_pre)
                grads[f"b{gate}"] += dg_pre
                dh_prev += dg_pre @ p[f"U{gate}"].T
            dh = dh_prev
        return grads

    def predict_sequence(self, vectors) -> float:
        score, _ = self.forward(vectors, train=False)
        return score

    def predict(self, sequences) -> list[float]:
        """One score per embedded caption."""
        return [self.predict_sequence(v) for v in sequences]


def _dropout_mask(shape, rate, train, rng):
    """Inverted-dropout multiplier; 1.0 (x * 1.0 == x exactly) when off."""
    return (rng.random(shape) >= rate) / (1.0 - rate) if train and rate > 0.0 else 1.0


def _sigmoid(x):
    # exp overflows to inf for x < -709; 1 / (1 + inf) = 0.0 is the exact limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _split_by_video(samples, fraction, rng):
    vids = sorted({vid for vid, _, _ in samples})
    if len(vids) < 2 or fraction <= 0.0:
        return list(range(len(samples))), list(range(len(samples)))
    order = rng.permutation(len(vids))
    n_val = max(1, int(fraction * len(vids)))
    val_vids = {vids[i] for i in order[:n_val]}
    train_idx = [i for i, (vid, _, _) in enumerate(samples) if vid not in val_vids]
    val_idx = [i for i, (vid, _, _) in enumerate(samples) if vid in val_vids]
    return train_idx, val_idx


def gru_train(model: GruRegressor, samples):
    """Train on (video_id, embedded caption, label) triples with MSE + Adam.

    A caption-level validation set is carved out by video id; early stopping
    restores the parameters of the best validation epoch.  Fully determined
    by the model's seed.  Returns the model's training log.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 training samples")
    cfg = model.train_config
    rng = model.rng

    train_idx, val_idx = _split_by_video(samples, cfg.validation_fraction, rng)

    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_t = 0

    def val_mse():
        errs = [(model.predict_sequence(samples[i][1]) - samples[i][2]) ** 2 for i in val_idx]
        return float(np.mean(errs))

    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    best_epoch = -1
    patience_left = cfg.patience
    log = []

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_idx))
        sq_sum, count = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_idx[i] for i in order[start:start + cfg.batch_size]]
            grads = {k: np.zeros_like(v) for k, v in model.params.items()}
            for i in batch:
                _, vectors, label = samples[i]
                score, cache = model.forward(vectors, train=True, rng=rng)
                err = score - label
                sq_sum += err * err
                count += 1
                g = model.backward(cache, 2.0 * err / len(batch))
                for k in grads:
                    grads[k] += g[k]
            adam_t += 1
            lr_t = cfg.learning_rate * np.sqrt(1.0 - cfg.beta2 ** adam_t) / (1.0 - cfg.beta1 ** adam_t)
            for k, param in model.params.items():
                adam_m[k] = cfg.beta1 * adam_m[k] + (1.0 - cfg.beta1) * grads[k]
                adam_v[k] = cfg.beta2 * adam_v[k] + (1.0 - cfg.beta2) * grads[k] ** 2
                param -= lr_t * adam_m[k] / (np.sqrt(adam_v[k]) + cfg.adam_eps)

        train_mse = sq_sum / max(count, 1)
        if not np.isfinite(train_mse):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        v_mse = val_mse()
        if not np.isfinite(v_mse):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        log.append({"epoch": epoch, "train_mse": train_mse, "val_mse": v_mse})

        if v_mse < best_val:
            best_val = v_mse
            best_params = {k: v.copy() for k, v in model.params.items()}
            best_epoch = epoch
            patience_left = cfg.patience
        else:
            patience_left -= 1
            if patience_left == 0:
                break

    model.params = best_params
    model.training_log = log + [{"restored_epoch": best_epoch, "best_val_mse": best_val}]
    return model.training_log
