"""Experiment orchestration: seeded id-level splits, one fit pass that trains
and validates each (config, seed, term) model once, the two reports read
from those fits (multi-seed per-feature mean/variance SRCC, and ensemble
grid search), and synthetic corpus generation used as the test oracle for
the decay fit and the end-to-end pipeline.

All randomness flows from named seeds, so results are byte-identical across
runs and across worker counts.  The fits run one at a time whatever `workers`
says: they are Python loops over small numpy calls that hold the interpreter
lock, so threads running them side by side only contend.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .aggregate import STRATEGIES, PredictionTable, aggregate_rows, by_length
from .corpus import AnnotationLog, CaptionSet, Corpus, FeatureSet, LabelTable, tokenize
from .ensemble import apply_weights, bucket_count, grid_search
from .metrics import srcc
from .regress import (LINEAR_HYPER_KEYS, check_linear_hyper, check_svr_settings, fit_linear,
                      fit_svr)
from .textmodel import GruRegressor, embed, gru_train

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    train_ids: tuple[str, ...]
    valid_ids: tuple[str, ...]


def check_train_fraction(train_fraction: float):
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")


def split(ids, seed: int, train_fraction: float = 0.8) -> SplitSpec:
    """Deterministic 80-20 (by default) split on video id."""
    check_train_fraction(train_fraction)
    ids = sorted(ids)
    if len(ids) < 2:
        raise ValueError("need at least 2 ids to split")
    order = np.random.default_rng(seed).permutation(len(ids))
    n_train = int(math.floor(train_fraction * len(ids)))
    train = tuple(ids[i] for i in order[:n_train])
    valid = tuple(ids[i] for i in order[n_train:])
    return SplitSpec(train_ids=train, valid_ids=valid)


# ---------------------------------------------------------------------------
# synthetic corpora (test oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_videos: int = 500
    obs_per_video: int = 30
    true_alpha: float = -0.03
    m_low: float = 0.3
    m_high: float = 0.9
    delay_low: float = 30.0
    delay_high: float = 150.0
    target_duration: float = 75.0
    feature_dim: int = 8
    rows_per_video: int = 1
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # the annotations are the strings "int" and "float"
            kinds, what = ((int, float), "a number") if f.type == "float" else ((int,), "an integer")
            value = getattr(self, f.name)
            if type(value) not in kinds:
                raise ValueError(f"'{f.name}' must be {what}")
            if not -math.inf < value < math.inf:
                raise ValueError(f"'{f.name}' must be finite")
        if self.n_videos < 1 or self.obs_per_video < 1:
            raise ValueError("need at least one video and one observation")
        if self.feature_dim < 1 or self.rows_per_video < 1:
            raise ValueError("need at least one feature dimension and one row per video")
        if not self.target_duration > 0.0:
            raise ValueError("'target_duration' must be positive")
        if self.noise < 0.0:
            raise ValueError("'noise' must be nonnegative")
        if self.seed < 0:
            raise ValueError("'seed' must be >= 0")
        if not (0.0 <= self.m_low <= self.m_high <= 1.0):
            raise ValueError("memorability bounds must satisfy 0 <= low <= high <= 1")
        if not (0.0 < self.delay_low <= self.delay_high):
            raise ValueError("delay bounds must be positive and ordered")


@dataclass
class SyntheticCorpus:
    corpus: Corpus
    true_alpha: float
    true_m: dict[str, float]
    informative_feature: str


_CAPTION_WORDS = ("person", "dog", "car", "ball", "street", "room", "tree",
                  "water", "child", "bike")

_WORD_BLOCK = 512  # 32-bit words `_words` takes from the generator at a time


def _words(rng):
    """The generator's 32-bit words in stream order, the ones a bounded
    `rng.integers` call reads, taken `_WORD_BLOCK` at a time."""
    while True:
        yield from rng.integers(0, 1 << 32, size=_WORD_BLOCK, dtype=np.uint32).tolist()


def _draw(words, n):
    """One draw from range(n), 1 < n < 2**32, as `rng.integers(0, n)` maps
    the next words (Lemire's multiply-shift): a word u gives u*n >> 32,
    unless the low half of u*n is below 2**32 % n, when it is skipped."""
    threshold = (1 << 32) % n
    for u in words:
        if u * n & 0xFFFFFFFF >= threshold:
            return u * n >> 32


def _squash(s):
    """1 / (1 + e**-s) through libm's `math.exp`, or 0.0, its limit, where
    e**-s is beyond the largest double."""
    try:
        return 1.0 / (1.0 + math.exp(-s))
    except OverflowError:
        return 0.0


def generate_synthetic(spec: SyntheticCorpusSpec) -> SyntheticCorpus:
    """Draw a corpus from the decay model with a known link between one
    feature set and the labels.

    `featA` carries the signal: labels are a strictly monotone squash of its
    row mean (plus optional gaussian noise before squashing).  `featB` is
    pure noise.  Recognition observations follow
    x ~ Bernoulli(clamp(m* + alpha* log(t/T), 0, 1)).

    The stream is drawn in this order: all m*; then per video its trial
    delays and its trial draws; then per video its featA rows, its featB
    rows and (with noise) one label-noise draw; then per video its caption
    count and, per caption, a word count and the words.  Each of the first
    three kinds is drawn for all videos in one block whose rows follow that
    order, which gives the bits of one call per video.  The captions map
    the generator's 32-bit words as `rng.integers` does, one word per draw
    (`_draw`), so they equal one `integers` call per draw; they are the last
    draws, so the unused words of the last block change nothing.
    """
    n, obs, k = spec.n_videos, spec.obs_per_video, spec.rows_per_video * spec.feature_dim
    rng = np.random.default_rng(spec.seed)
    vids = [f"v{i:04d}" for i in range(n)]

    m_star = rng.uniform(spec.m_low, spec.m_high, size=n)
    u = rng.random((n, 2 * obs))  # row: the video's delay draws, then its trial draws
    low = float(spec.delay_low)
    delays = low + (float(spec.delay_high) - low) * u[:, :obs]  # as Generator.uniform computes
    decay = 0.0  # without decay: 0 * log(t/T) would be nan where t/T overflows
    if spec.true_alpha != 0.0:
        with np.errstate(divide="ignore", over="ignore"):  # t/T overflowing or 0
            decay = spec.true_alpha * np.log(delays / spec.target_duration)
    p = np.clip(m_star[:, None] + decay, 0.0, 1.0)
    log = AnnotationLog([vid for vid in vids for _ in range(obs)],
                        delays.ravel(), (u[:, obs:] < p).ravel())

    z = rng.normal(size=(n, 2 * k + (spec.noise > 0.0)))  # row: featA, featB, label noise
    signal = z[:, :k].mean(axis=1)  # each row summed as its own .mean() sums it
    if spec.noise > 0.0:
        signal += 0.0 + spec.noise * z[:, 2 * k]  # as `normal(scale=noise)` computes it
    labels = {vid: _squash(s) for vid, s in zip(vids, signal.tolist())}

    words, captions = _words(rng), {}
    for vid in vids:
        caps = []
        for _ in range(2 + _draw(words, 4)):  # as rng.integers(2, 6)
            count = 3 + _draw(words, 5)  # as rng.integers(3, 8)
            caps.append("a video of " + " ".join([_CAPTION_WORDS[_draw(words, 10)]
                                                  for _ in range(count)]))
        captions[vid] = tuple(caps)

    row_ids = [vid for vid in vids for _ in range(spec.rows_per_video)]
    corpus = Corpus(
        features={
            "featA": FeatureSet("video", "featA", row_ids,
                                z[:, :k].reshape(-1, spec.feature_dim)),
            "featB": FeatureSet("image", "featB", row_ids,
                                z[:, k:2 * k].reshape(-1, spec.feature_dim)),
        },
        captions=CaptionSet(captions),
        labels={
            "short": LabelTable("short", dict(labels)),
            "long": LabelTable("long", dict(labels)),
        },
        annotations={"short": log},
    )
    return SyntheticCorpus(corpus=corpus, true_alpha=spec.true_alpha,
                           true_m={vid: float(m) for vid, m in zip(vids, m_star)},
                           informative_feature="featA")


# ---------------------------------------------------------------------------
# per-feature model training
# ---------------------------------------------------------------------------

# the hyperparameters each model kind may set
_HYPER_KEYS = {
    **LINEAR_HYPER_KEYS,
    "svr": set(inspect.signature(fit_svr).parameters) - {"X", "y"},
    "gru": set(inspect.signature(GruRegressor).parameters) - {"input_dim", "seed"},
}

# what a hyperparameter's value must be (a bool is no number); a key not listed is a number
_NUMBER = ("a number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_HYPER_TYPES = {
    "kernel": ("a string", lambda v: isinstance(v, str)),
    "dense_widths": ("a list of integers",
                     lambda v: isinstance(v, list) and all(type(w) is int for w in v)),
    **dict.fromkeys(("hidden_units", "batch_size", "max_epochs", "patience", "max_iter",
                     "max_sweeps"), ("an integer", lambda v: type(v) is int)),
    **dict.fromkeys(("gamma", "fixed_alpha_noise", "fixed_lambda_prior"),
                    ("a number or null", lambda v: v is None or _NUMBER[1](v))),
}


def _apply_rule(rule, fit, hyper):
    """Call the range rule `rule` on the values of its parameters in `hyper`
    over the defaults of `fit`, whose settings it checks."""
    values = {p.name: p.default for p in inspect.signature(fit).parameters.values()} | hyper
    rule(*(values[name] for name in inspect.signature(rule).parameters))


@dataclass(frozen=True)
class FeatureModelConfig:
    """One model entry; construction raises ValueError for an invalid one."""
    feature: str  # FeatureSet name, or "captions" for the GRU
    model: str
    hyper: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("feature", "model"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"'{name}' must be a string")
        if self.model not in _HYPER_KEYS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if not isinstance(self.hyper, dict):
            raise ValueError("'hyper' must be a JSON object")
        unknown = sorted(set(self.hyper) - _HYPER_KEYS[self.model])
        if unknown:
            raise ValueError(f"unknown {self.model} hyperparameter {unknown[0]!r}")
        for key, value in self.hyper.items():
            want, valid = _HYPER_TYPES.get(key, _NUMBER)
            if not valid(value):
                raise ValueError(f"{self.model} hyperparameter {key!r} must be {want}")
        if self.model == "gru" and self.feature != "captions":
            raise ValueError(f"a gru model reads 'captions', not {self.feature!r}")
        if self.model == "svr":
            _apply_rule(check_svr_settings, fit_svr, self.hyper)
        elif self.model == "gru":
            GruRegressor(input_dim=1, **self.hyper)
        else:
            check_linear_hyper(self.model, self.hyper)

    @property
    def display_name(self):
        return f"{self.feature}:{self.model}"


def _inputs(corpus, ids) -> dict:
    """What a GRU model reads for each of `ids` that has captions, in `ids`
    order: one embedding per caption, made on each call, which its `predict`
    maps to one score each."""
    if corpus.captions is None or corpus.word_vectors is None:
        raise ValueError("gru model needs captions and word vectors in the corpus")
    captions = corpus.captions.captions
    return {vid: [embed(tokenize(c), corpus.word_vectors) for c in captions[vid]]
            for vid in ids if vid in captions}


def _rows_of(corpus, config: FeatureModelConfig, ids):
    """The values of the feature set a feature model reads, those of `ids`
    that have rows there (in `ids` order, each once), and their first rows
    and row counts."""
    if config.feature not in corpus.features:
        raise ValueError(f"feature set {config.feature!r} is not in the corpus")
    fs = corpus.features[config.feature]
    vids = list(dict.fromkeys(vid for vid in ids if vid in fs.codes))
    codes = np.fromiter(map(fs.codes.__getitem__, vids), np.intp, len(vids))
    return fs.values, vids, fs.starts[codes], fs.counts[codes]


def train_feature_model(corpus, config: FeatureModelConfig, labels: LabelTable,
                        train_ids, seed: int):
    """Fit the configured model on the training split for one label term."""
    ids = [vid for vid in train_ids if vid in labels.scores]
    if config.model == "gru":
        samples = [(vid, x, labels.scores[vid]) for vid, xs in _inputs(corpus, ids).items()
                   for x in xs]
        if not samples:
            raise ValueError("no caption samples in the training split")
        model = GruRegressor(corpus.word_vectors.dimension, seed=seed, **config.hyper)
        gru_train(model, samples)
        return model
    values, vids, starts, counts = _rows_of(corpus, config, ids)
    if not vids:
        raise ValueError(f"no training rows for feature {config.feature!r}")
    X = values[np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
    y = np.repeat([labels.scores[vid] for vid in vids], counts)
    if config.model == "svr":
        return fit_svr(X, y, **config.hyper)
    return fit_linear(X, y, kind=config.model, hyper=config.hyper)


def predict_table(corpus, config: FeatureModelConfig, model, ids,
                  aggregation="median") -> PredictionTable:
    """Per-input predictions aggregated to one score per requested video.

    A feature model predicts the videos with the same row count L in one
    call on their `(n_L, L, d)` block, gathered from the feature set at
    their starts; a GRU predicts every caption of the requested videos in
    one call.
    """
    if config.model == "gru":
        inputs = _inputs(corpus, ids)
        scores = iter(model.predict([x for xs in inputs.values() for x in xs]))
        per_row = {vid: [next(scores) for _ in xs] for vid, xs in inputs.items()}
    else:
        (values, vids, starts, counts), per_row = _rows_of(corpus, config, ids), {}
        for positions, index in by_length(starts, counts):
            per_row.update(zip([vids[k] for k in positions.tolist()], model.predict(values[index])))
    return aggregate_rows(per_row, strategy=aggregation, id_universe=ids,
                          model_name=config.display_name)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_jobs(jobs, worker_fn, workers):
    """Evaluate keyed jobs one at a time, in job order.  With `workers` > 1
    they run on a single pool thread: fits hold the interpreter lock, so
    more threads only contend.  Results follow the job list."""
    if workers <= 1:
        return [worker_fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(worker_fn, jobs))


@dataclass(frozen=True)
class ExperimentSettings:
    """An experiment's run-wide settings; construction raises ValueError for
    settings that cannot run.  `seeds` is kept as a tuple."""
    seeds: tuple = DEFAULT_SEEDS
    bucket: float = 0.05
    train_fraction: float = 0.8
    aggregation: str = "median"
    workers: int = 1

    def __post_init__(self):
        seeds = self.seeds
        if not (isinstance(seeds, (list, tuple)) and seeds and all(type(s) is int for s in seeds)):
            raise ValueError("'seeds' must be a non-empty list of integers")
        if min(seeds) < 0:
            raise ValueError(f"'seeds' must be >= 0, got {min(seeds)}")
        repeated = [s for s in seeds if seeds.count(s) > 1]
        if repeated:
            raise ValueError(f"'seeds' must be distinct, got {repeated[0]} more than once")
        object.__setattr__(self, "seeds", tuple(seeds))
        for name, rule in (("bucket", bucket_count), ("train_fraction", check_train_fraction)):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"'{name}' must be a number")
            rule(getattr(self, name))
        if self.aggregation not in STRATEGIES:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if type(self.workers) is not int:
            raise ValueError("'workers' must be an integer")


def _config_key(config: FeatureModelConfig):
    hyper = json.dumps(config.hyper, sort_keys=True)
    return config.feature, config.model, hyper


def _fit_all(corpus: Corpus, configs, splits, settings) -> dict:
    """Train every distinct (config, seed, term) once on `splits[seed]` and
    predict its validation ids.

    Returns {(config key, seed, term): (model, validation PredictionTable)};
    a fit that raised stores its exception instead, so one failure does not
    abort the other fits.
    """
    unique = {_config_key(config): config for config in configs}
    jobs = [(key, seed, term) for key in unique for seed in splits
            for term in sorted(corpus.labels)]

    def fit(job):
        key, seed, term = job
        config, sp = unique[key], splits[seed]
        try:
            model = train_feature_model(corpus, config, corpus.labels[term],
                                        sp.train_ids, seed)
            return model, predict_table(corpus, config, model, sp.valid_ids, settings.aggregation)
        except Exception as exc:  # the feature report records it, the ensemble raises it
            return exc

    return dict(zip(jobs, _run_jobs(jobs, fit, settings.workers)))


def _validation_srcc(fit, labels: LabelTable):
    """SRCC of a stored fit on its validation ids, or the exception that
    fitting, predicting or scoring raised."""
    if isinstance(fit, Exception):
        return fit
    _, table = fit
    vids = [v for v in table.scores if v in labels.scores]
    try:
        return srcc([table.scores[v] for v in vids], [labels.scores[v] for v in vids])
    except Exception as exc:  # e.g. constant predictions
        return exc


def _feature_report(corpus: Corpus, configs, fits, settings) -> dict:
    seeds, terms = settings.seeds, sorted(corpus.labels)
    rows, best = [], {term: {} for term in terms}
    for config in configs:
        key = _config_key(config)
        row = {"feature": config.feature, "model": config.model, "terms": {}, "error": None}
        rows.append(row)
        scores = {(seed, term): _validation_srcc(fits[key, seed, term], corpus.labels[term])
                  for seed in seeds for term in terms}
        failures = [str(s) for s in scores.values() if isinstance(s, Exception)]
        if failures:  # the first failure in seed-then-term order
            row["error"] = failures[0]
            continue
        modality = ("text" if config.model == "gru"
                    else corpus.features[config.feature].modality)
        for term in terms:
            per_seed = [scores[seed, term] for seed in seeds]
            mean = float(np.mean(per_seed))
            row["terms"][term] = {"per_seed": per_seed, "mean": mean,
                                  "variance": float(np.var(per_seed))}  # population variance
            if modality not in best[term] or mean > best[term][modality]["mean"]:
                best[term][modality] = {"feature": config.feature,
                                        "model": config.model, "mean": mean}

    return {"kind": "feature_experiment", "seeds": list(seeds),
            "train_fraction": settings.train_fraction, "aggregation": settings.aggregation,
            "rows": rows, "best_per_modality": best}


def _ensemble_report(corpus: Corpus, configs, fits, settings, test_labels) -> dict:
    keys = [_config_key(config) for config in configs]
    rows = []
    for seed in settings.seeds if configs else []:  # no ensemble configs: no rows
        for term in sorted(corpus.labels):
            stored = [fits[key, seed, term] for key in keys]
            for fit in stored:  # the first failure in config order
                if isinstance(fit, Exception):
                    raise fit
            # every stored table holds the seed's validation ids in split order
            labels = corpus.labels[term].scores
            truth = LabelTable(term, {v: labels[v] for v in stored[0][1].scores if v in labels})
            weights = grid_search([table for _, table in stored], truth, settings.bucket)
            row = {"seed": seed, "term": term,
                   "model_names": list(weights.model_names),
                   "weights": list(weights.weights),
                   "validation_srcc": weights.validation_srcc,
                   "test_srcc": None}
            if test_labels is not None and term in test_labels:
                test_tab = test_labels[term]
                test_ids = list(test_tab.scores)
                tables = [predict_table(corpus, config, model, test_ids, settings.aggregation)
                          for config, (model, _) in zip(configs, stored)]
                combined = apply_weights(weights, tables)
                row["test_srcc"] = srcc([combined.scores[v] for v in test_ids],
                                        [test_tab.scores[v] for v in test_ids])
            rows.append(row)
    return {"kind": "ensemble_experiment", "seeds": list(settings.seeds),
            "bucket": settings.bucket, "train_fraction": settings.train_fraction,
            "aggregation": settings.aggregation, "rows": rows}


def run_feature_experiment(corpus: Corpus, configs, **settings) -> dict:
    """Per-feature protocol: for every config and seed, train on the split,
    aggregate per video, score validation SRCC per term; report mean and
    population variance over seeds plus the best feature per modality.
    A config that fails records its first error instead of aborting the run."""
    return run_full_experiment(corpus, configs, [], **settings)["features"]


def run_ensemble_experiment(corpus: Corpus, configs, test_labels=None, **settings) -> dict:
    """Ensemble protocol: per seed and term, train the selected per-modality
    models, grid-search simplex weights on the validation split, and
    optionally score a held-out test label table.  Any failure raises."""
    return run_full_experiment(corpus, [], configs, test_labels, **settings)["ensemble"]


def run_full_experiment(corpus: Corpus, feature_configs, ensemble_configs, test_labels=None,
                        **settings) -> dict:
    """Both protocols over one set of fits: each seed is split once, and a
    config that appears in both lists is trained once per seed and term.
    With no ensemble configs the grid search is skipped and the ensemble
    section has an empty `rows`.  The settings are keyword-only fields of
    `ExperimentSettings`, checked with `vidmem experiment`'s rules and texts
    before any split or fit; a corpus without labels, a `test_labels` term
    the corpus has no labels for, or a corpus that cannot be split, raises
    before any fit."""
    settings, ids = ExperimentSettings(**settings), corpus.video_ids
    if not corpus.labels:
        raise ValueError("the corpus has no label terms to fit")
    untrained = [term for term in test_labels or () if term not in corpus.labels]
    if untrained:
        raise ValueError(f"test_labels: term {untrained[0]!r} is not in the corpus labels")
    splits = {seed: split(ids, seed, settings.train_fraction) for seed in settings.seeds}
    fits = _fit_all(corpus, list(feature_configs) + list(ensemble_configs), splits, settings)
    return {"features": _feature_report(corpus, feature_configs, fits, settings),
            "ensemble": _ensemble_report(corpus, ensemble_configs, fits, settings, test_labels)}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def report_to_json(report: dict) -> str:
    """Canonical JSON; byte-identical for identical inputs."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _fmt(x, places=3):
    return f"{x:.{places}f}" if x is not None else "-"


def report_to_text(report: dict) -> str:
    """Aligned-text tables mirroring the per-feature and ensemble layouts."""
    lines = []
    feat = report.get("features")
    if feat:
        terms = sorted({t for row in feat["rows"] for t in row["terms"]})
        header = ["Feature", "Model"]
        for t in terms:
            header += [f"Mean ({t.upper()[0]}T)", f"Variance ({t.upper()[0]}T)"]
        table = [header]
        for row in feat["rows"]:
            if row["error"]:
                table.append([row["feature"], row["model"], "ERROR: " + row["error"]])
                continue
            cells = [row["feature"], row["model"]]
            for t in terms:
                cells += [_fmt(row["terms"][t]["mean"]), _fmt(row["terms"][t]["variance"])]
            table.append(cells)
        lines += _align(table) + [""]
    ens = report.get("ensemble")
    if ens and ens["rows"]:
        names = ens["rows"][0]["model_names"]
        table = [["Model", "Term"] + list(names) + ["Valid", "Test"]]
        for i, row in enumerate(ens["rows"], start=1):
            table.append([str(i), row["term"]]
                         + [f"{w:.2f}" for w in row["weights"]]
                         + [_fmt(row["validation_srcc"]), _fmt(row["test_srcc"])])
        lines += _align(table)
    return "\n".join(lines) + "\n"


def _align(table):
    widths = [max(len(row[c]) for row in table if c < len(row))
              for c in range(max(len(r) for r in table))]
    return ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in table]
