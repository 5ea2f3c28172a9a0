"""Caption pipeline: word-vector lookup and a GRU regressor (dense head,
inverted dropout, Adam, early stopping) implemented directly in numpy with
hand-written backprop through time.  Captions are tokenized by `corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import WordVectorTable

# Adam's fixed constants (Kingma & Ba, arXiv:1412.6980)
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """A training or validation loss became non-finite."""


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

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("'learning_rate' must be > 0")
        _check_integer("batch_size", self.batch_size, 1)
        _check_integer("max_epochs", self.max_epochs, 1)
        _check_integer("patience", self.patience, 1)
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("'validation_fraction' must lie in [0, 1)")


def _check_integer(key, value, least):
    if type(value) is not int or value < least:  # type(True) is bool
        raise ValueError(f"{key!r} must be an integer >= {least}")


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

    `forward` and `backward` take a whole minibatch of captions of any
    lengths at once, in batch order; each caption's score, dropout draws
    and gradient have the bits they have in a minibatch of one.
    `gru_train` makes one forward and one backward call per minibatch, and
    `predict` one forward call per `train_config.batch_size` captions.
    """

    kind = "gru"

    def __init__(self, input_dim, hidden_units=64, dense_widths=(32, 16, 8, 1),
                 recurrent_dropout_rate=0.8, dense_dropout_rate=0.25,
                 seed=0, train_config: TrainConfig | None = None):
        _check_integer("input_dim", input_dim, 1)
        _check_integer("hidden_units", hidden_units, 1)
        if not (isinstance(dense_widths, (list, tuple))
                and all(type(w) is int and w > 0 for w in dense_widths)):
            raise ValueError("'dense_widths' must be a list of positive integers")
        if tuple(dense_widths)[-1:] != (1,):
            raise ValueError("final dense width must be 1")
        if not (0.0 <= recurrent_dropout_rate < 1.0 and 0.0 <= dense_dropout_rate < 1.0):
            raise ValueError("dropout rates must lie in [0, 1)")
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

    def forward(self, sequences, train=False, rng=None):
        """Score a minibatch of caption embeddings, each a non-empty
        (steps, input_dim) array; returns (scores, cache for backward).

        The rows still running at step t are the mask `lengths > t`.  Every
        row gives the bits it gives alone: each vector-matrix product is one
        gemv per row (`_vecmat`).  Dropout masks are multipliers, 1.0 with
        no draw when off: masks[0] drops the final hidden state and
        masks[k + 1] the output of dense layer k.
        """
        Xs = [np.asarray(v, dtype=float) for v in sequences]
        for X in Xs:
            if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != self.input_dim:
                raise ValueError(f"expected a non-empty (steps, {self.input_dim}) array")
        lengths = np.array([len(X) for X in Xs], dtype=int)
        X_t = np.zeros((lengths.max(initial=0), len(Xs), self.input_dim))  # time-major
        for b, X in enumerate(Xs):
            X_t[:len(X), b] = X

        p = self.params
        h = np.zeros((len(Xs), self.hidden_units))
        steps = []
        for t, x_all in enumerate(X_t):
            running = lengths > t
            x, h_prev = x_all[running], h[running]
            z = _sigmoid(_vecmat(x, p["Wz"]) + _vecmat(h_prev, p["Uz"]) + p["bz"])
            r = _sigmoid(_vecmat(x, p["Wr"]) + _vecmat(h_prev, p["Ur"]) + p["br"])
            c = np.tanh(_vecmat(x, p["Wh"]) + _vecmat(r * h_prev, p["Uh"]) + p["bh"])
            steps.append((running, x, h_prev, z, r, c))
            h[running] = (1.0 - z) * h_prev + z * c

        masks = self._dropout_masks(len(Xs), train, rng)
        v = h * masks[0]
        dense = []
        n_dense = len(self.dense_widths)
        for k in range(n_dense):
            pre = _vecmat(v, p[f"dW{k}"]) + p[f"db{k}"]
            dense.append((v, pre))
            if k < n_dense - 1:
                v = np.maximum(pre, 0.0) * masks[k + 1]
        return pre[:, 0], {"steps": steps, "masks": masks, "dense": dense}

    def _dropout_masks(self, batch, train, rng):
        """The inverted-dropout multipliers, one (batch, width) array per
        dropped layer, or 1.0 (x * 1.0 == x exactly) for a layer without
        dropout.  One draw covers the batch: row b holds sample b's draws in
        the order its own forward pass would make them."""
        widths = (self.hidden_units,) + self.dense_widths[:-1]
        rates = (self.recurrent_dropout_rate,) + (self.dense_dropout_rate,) * (len(widths) - 1)
        drawn = [w if train and rate > 0.0 else 0 for w, rate in zip(widths, rates)]
        if not any(drawn):
            return [1.0] * len(widths)
        draws = np.split(rng.random((batch, sum(drawn))), np.cumsum(drawn)[:-1], axis=1)
        return [(u >= rate) / (1.0 - rate) if w else 1.0
                for u, w, rate in zip(draws, drawn, rates)]

    def backward(self, cache, dscores):
        """Gradients of sum_b dscores[b] * scores[b] w.r.t. every parameter.

        Each sample's gradient builds up in its own row over its reversed
        steps, and the rows are added to zeros one at a time in batch order,
        so the sum has the bits of adding the B = 1 gradients in that order.
        """
        p = self.params
        dv = np.asarray(dscores, dtype=float)[:, None]
        per_sample = np.zeros((len(dv), sum(arr.size for arr in p.values())))
        grads = _param_views(per_sample, p)
        n_dense = len(self.dense_widths)

        for k in reversed(range(n_dense)):
            v_in, pre = cache["dense"][k]
            dpre = dv * cache["masks"][k + 1] * (pre > 0.0) if k < n_dense - 1 else dv
            grads[f"dW{k}"] += _outer(v_in, dpre)
            grads[f"db{k}"] += dpre
            dv = _vecmat(dpre, p[f"dW{k}"].T)

        dh = dv * cache["masks"][0]
        for running, x, h_prev, z, r, c in reversed(cache["steps"]):
            dh_n = dh[running]
            dc_pre = dh_n * z * (1.0 - c * c)
            grads["Wh"][running] += _outer(x, dc_pre)
            grads["Uh"][running] += _outer(r * h_prev, dc_pre)
            grads["bh"][running] += dc_pre
            tmp = _vecmat(dc_pre, p["Uh"].T)
            dh_prev = dh_n * (1.0 - z) + tmp * r
            # z before r: the order of the dh_prev sum is part of the result
            for gate, g, dg in (("z", z, dh_n * (c - h_prev)), ("r", r, tmp * h_prev)):
                dg_pre = dg * g * (1.0 - g)
                grads[f"W{gate}"][running] += _outer(x, dg_pre)
                grads[f"U{gate}"][running] += _outer(h_prev, dg_pre)
                grads[f"b{gate}"][running] += dg_pre
                dh_prev += _vecmat(dg_pre, p[f"U{gate}"].T)
            dh[running] = dh_prev

        total = np.zeros(per_sample.shape[1])
        for row in per_sample:
            total += row
        return _param_views(total, p)

    def predict_sequence(self, vectors) -> float:
        return self.predict([vectors])[0]

    def predict(self, sequences) -> list[float]:
        """One score per caption embedding, from eval forwards over
        `train_config.batch_size` captions at a time: a forward keeps every
        step of its batch for backward."""
        size = self.train_config.batch_size
        return [score for start in range(0, len(sequences), size)
                for score in self.forward(sequences[start:start + size])[0].tolist()]


def _vecmat(a, M):
    """Each row of `a` times `M`, as a stack of vector-matrix products: a
    2-D matrix product would sum in another order and change the bits."""
    return (a[:, None, :] @ M)[:, 0]


def _outer(a, b):
    """The outer product of each row of `a` with the same row of `b`."""
    return a[:, :, None] * b[:, None, :]


def _param_views(flat, params):
    """Views of the last axis of `flat`, one per parameter, in its shape."""
    views, start = {}, 0
    for name, arr in params.items():
        views[name] = flat[..., start:start + arr.size].reshape(flat.shape[:-1] + arr.shape)
        start += arr.size
    return views


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
    """Train on (video_id, caption embedding, label) triples with MSE + Adam.

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
        scores = model.predict([samples[i][1] for i in val_idx])  # a huge score squares to inf
        return float(np.mean((np.array(scores) - [samples[i][2] for i in val_idx]) ** 2))

    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}
    best_epoch = -1
    patience_left = cfg.patience
    log = []

    # A diverging fit overflows to inf and nan on the way; the loss checks
    # report it as TrainingDivergedError, so the arithmetic stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(len(train_idx))
            sq_sum, count = 0.0, 0
            for start in range(0, len(order), cfg.batch_size):
                batch = [train_idx[i] for i in order[start:start + cfg.batch_size]]
                scores, cache = model.forward([samples[i][1] for i in batch], train=True, rng=rng)
                dscores = []
                for i, score in zip(batch, scores.tolist()):
                    err = score - samples[i][2]
                    sq_sum += err * err
                    count += 1
                    dscores.append(2.0 * err / len(batch))
                grads = model.backward(cache, dscores)
                adam_t += 1
                lr_t = (cfg.learning_rate * np.sqrt(1.0 - _BETA2 ** adam_t)
                        / (1.0 - _BETA1 ** adam_t))
                for k, param in model.params.items():
                    adam_m[k] = _BETA1 * adam_m[k] + (1.0 - _BETA1) * grads[k]
                    adam_v[k] = _BETA2 * adam_v[k] + (1.0 - _BETA2) * grads[k] ** 2
                    param -= lr_t * adam_m[k] / (np.sqrt(adam_v[k]) + _ADAM_EPS)

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
