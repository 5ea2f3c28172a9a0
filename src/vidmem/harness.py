"""Experiment orchestration: seeded id-level splits, one fit pass that trains
and validates each (config, seed, term) model once, the two reports read
from those fits (multi-seed per-feature mean/variance SRCC, and ensemble
grid search), and synthetic corpus generation used as the test oracle for
the decay fit and the end-to-end pipeline.

All randomness flows from named seeds, so results are byte-identical across
runs and across worker counts.
"""

from __future__ import annotations

import inspect
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .aggregate import PredictionTable, aggregate_rows, clamp_unit
from .corpus import (AnnotationLog, CaptionSet, Corpus, FeatureSet, LabelTable,
                     WordVectorTable)
from .ensemble import apply_weights, grid_search
from .metrics import srcc
from .regress import LINEAR_HYPER_KEYS, fit_linear, fit_svr
from .textmodel import GruRegressor, TrainConfig, embed, gru_train, tokenize

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


def generate_synthetic(spec: SyntheticCorpusSpec) -> SyntheticCorpus:
    """Draw a corpus from the decay model with a known link between one
    feature set and the labels.

    `featA` carries the signal: labels are a strictly monotone squash of its
    row mean (plus optional gaussian noise before squashing).  `featB` is
    pure noise.  Recognition observations follow
    x ~ Bernoulli(clamp(m* + alpha* log(t/T), 0, 1)).
    """
    rng = np.random.default_rng(spec.seed)
    vids = [f"v{i:04d}" for i in range(spec.n_videos)]

    m_star = rng.uniform(spec.m_low, spec.m_high, size=spec.n_videos)
    delays, hits = [], []
    for k in range(spec.n_videos):
        delays.append(rng.uniform(spec.delay_low, spec.delay_high, size=spec.obs_per_video))
        p = np.clip(m_star[k] + spec.true_alpha * np.log(delays[-1] / spec.target_duration),
                    0.0, 1.0)
        hits.append(rng.random(spec.obs_per_video) < p)
    log = AnnotationLog([vid for vid in vids for _ in range(spec.obs_per_video)],
                        np.concatenate(delays), np.concatenate(hits))

    feat_a_rows, feat_b_rows, labels = [], [], {}
    for vid in vids:
        rows = rng.normal(size=(spec.rows_per_video, spec.feature_dim))
        feat_a_rows.append(rows)
        feat_b_rows.append(rng.normal(size=(spec.rows_per_video, spec.feature_dim)))
        signal = float(rows.mean())
        if spec.noise > 0.0:
            signal += float(rng.normal(scale=spec.noise))
        labels[vid] = 1.0 / (1.0 + math.exp(-signal))

    captions = {}
    for vid in vids:
        n_caps = int(rng.integers(2, 6))
        caps = []
        for _ in range(n_caps):
            words = rng.choice(_CAPTION_WORDS, size=int(rng.integers(3, 8)))
            caps.append("a video of " + " ".join(words))
        captions[vid] = tuple(caps)

    row_ids = [vid for vid in vids for _ in range(spec.rows_per_video)]
    corpus = Corpus(
        features={
            "featA": FeatureSet("video", "featA", row_ids, np.concatenate(feat_a_rows)),
            "featB": FeatureSet("image", "featB", row_ids, np.concatenate(feat_b_rows)),
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
    "gru": (set(inspect.signature(GruRegressor).parameters) - {"input_dim", "seed", "train_config"}
            | set(TrainConfig.__dataclass_fields__)),
}


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
        if self.model == "gru" and self.feature != "captions":
            raise ValueError(f"a gru model reads 'captions', not {self.feature!r}")

    @property
    def display_name(self):
        return f"{self.feature}:{self.model}"


def _stack_training_rows(feature_set, labels, ids):
    """The rows and labels of the `ids` that have both, in `ids` order."""
    kept = [vid for vid in ids if vid in feature_set.rows and vid in labels.scores]
    if not kept:
        raise ValueError(f"no training rows for feature {feature_set.name!r}")
    blocks = [feature_set.rows[vid] for vid in kept]
    return (np.vstack(blocks),
            np.repeat([labels.scores[vid] for vid in kept], [len(rows) for rows in blocks]))


def _caption_samples(corpus, labels, ids):
    samples = []
    for vid in ids:
        caps = corpus.captions.captions.get(vid, ())
        if vid not in labels.scores:
            continue
        for cap in caps:
            samples.append((vid, embed(tokenize(cap), corpus.word_vectors), labels.scores[vid]))
    if not samples:
        raise ValueError("no caption samples in the training split")
    return samples


def _feature_set(corpus, name):
    try:
        return corpus.features[name]
    except KeyError:
        raise ValueError(f"feature set {name!r} is not in the corpus") from None


def train_feature_model(corpus, config: FeatureModelConfig, labels: LabelTable,
                        train_ids, seed: int):
    """Fit the configured model on the training split for one label term."""
    hyper = dict(config.hyper)
    if config.model == "gru":
        if corpus.captions is None or corpus.word_vectors is None:
            raise ValueError("gru model needs captions and word vectors in the corpus")
        train_keys = {k: hyper.pop(k) for k in list(hyper)
                      if k in TrainConfig.__dataclass_fields__}
        model = GruRegressor(input_dim=corpus.word_vectors.dimension, seed=seed,
                             train_config=TrainConfig(**train_keys), **hyper)
        gru_train(model, _caption_samples(corpus, labels, train_ids))
        return model
    X, y = _stack_training_rows(_feature_set(corpus, config.feature), labels, train_ids)
    if config.model == "svr":
        return fit_svr(X, y, **hyper)
    return fit_linear(X, y, kind=config.model, hyper=hyper)


def predict_table(corpus, config: FeatureModelConfig, model, ids,
                  aggregation="median") -> PredictionTable:
    """Per-row predictions aggregated to one score per requested video."""
    per_row: dict[str, list[float]] = {}
    if config.model == "gru":
        for vid in ids:
            caps = corpus.captions.captions.get(vid, ())
            if caps:
                per_row[vid] = [model.predict_sequence(embed(tokenize(c), corpus.word_vectors))
                                for c in caps]
    else:
        feature_set = _feature_set(corpus, config.feature)
        for vid in ids:
            if vid in feature_set.rows:
                per_row[vid] = list(model.predict(feature_set.rows[vid]))
    return aggregate_rows(per_row, strategy=aggregation, id_universe=ids,
                          model_name=config.display_name)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _mean_variance(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.var())  # population variance


def _run_jobs(jobs, worker_fn, workers):
    """Evaluate keyed jobs, optionally in a thread pool; result order is
    fixed by the job list so worker count never changes the output."""
    if workers <= 1:
        return [worker_fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker_fn, jobs))


def _config_key(config: FeatureModelConfig):
    hyper = json.dumps(config.hyper, sort_keys=True, default=repr)
    return config.feature, config.model, hyper


def _fit_all(corpus: Corpus, configs, seeds, train_fraction, aggregation, workers) -> dict:
    """Train every distinct (config, seed, term) once on the seed's split and
    predict its validation ids.

    Returns {(config key, seed, term): (model, validation PredictionTable)};
    a fit that raised stores its exception instead, so one failure does not
    abort the other fits.
    """
    ids = corpus.video_ids
    unique = {_config_key(config): config for config in configs}
    jobs = [(key, seed, term) for key in unique for seed in seeds
            for term in sorted(corpus.labels)]

    def fit(job):
        key, seed, term = job
        config = unique[key]
        try:
            sp = split(ids, seed, train_fraction)
            model = train_feature_model(corpus, config, corpus.labels[term],
                                        sp.train_ids, seed)
            return model, predict_table(corpus, config, model, sp.valid_ids, aggregation)
        except Exception as exc:  # the feature report records it, the ensemble raises it
            return exc

    return dict(zip(jobs, _run_jobs(jobs, fit, workers)))


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


def _feature_report(corpus: Corpus, configs, fits, seeds, train_fraction,
                    aggregation) -> dict:
    terms = sorted(corpus.labels)
    rows = []
    for config in configs:
        key = _config_key(config)
        row = {"feature": config.feature, "model": config.model, "terms": {}, "error": None}
        scores = {(seed, term): _validation_srcc(fits[key, seed, term], corpus.labels[term])
                  for seed in seeds for term in terms}
        failures = [str(s) for s in scores.values() if isinstance(s, Exception)]
        if failures:  # the first failure in seed-then-term order
            row["error"] = failures[0]
        else:
            for term in terms:
                per_seed = [scores[seed, term] for seed in seeds]
                mean, var = _mean_variance(per_seed)
                row["terms"][term] = {"per_seed": per_seed, "mean": mean, "variance": var}
        rows.append(row)

    best = {}
    for term in terms:
        best[term] = {}
        for ci, config in enumerate(configs):
            if rows[ci]["error"]:
                continue
            modality = ("text" if config.model == "gru"
                        else corpus.features[config.feature].modality)
            mean = rows[ci]["terms"][term]["mean"]
            if modality not in best[term] or mean > best[term][modality]["mean"]:
                best[term][modality] = {"feature": config.feature,
                                        "model": config.model, "mean": mean}

    return {"kind": "feature_experiment", "seeds": seeds,
            "train_fraction": train_fraction, "aggregation": aggregation,
            "rows": rows, "best_per_modality": best}


def _subset_labels(table, ids):
    return LabelTable(term=table.term,
                      scores={v: table.scores[v] for v in ids if v in table.scores})


def _ensemble_report(corpus: Corpus, configs, fits, seeds, bucket, train_fraction,
                     aggregation, test_labels) -> dict:
    ids = corpus.video_ids
    keys = [_config_key(config) for config in configs]
    rows = []
    for seed in seeds if configs else []:  # no ensemble configs: no rows
        sp = split(ids, seed, train_fraction)
        for term in sorted(corpus.labels):
            stored = [fits[key, seed, term] for key in keys]
            for fit in stored:  # the first failure in config order
                if isinstance(fit, Exception):
                    raise fit
            labels = corpus.labels[term]
            weights = grid_search([table for _, table in stored],
                                  _subset_labels(labels, sp.valid_ids), bucket)
            row = {"seed": seed, "term": term,
                   "model_names": list(weights.model_names),
                   "weights": list(weights.weights),
                   "validation_srcc": weights.validation_srcc,
                   "test_srcc": None}
            if test_labels is not None and term in test_labels:
                test_tab = test_labels[term]
                test_ids = list(test_tab.scores)
                tables = [predict_table(corpus, config, model, test_ids, aggregation)
                          for config, (model, _) in zip(configs, stored)]
                combined = apply_weights(weights, tables)
                row["test_srcc"] = srcc([combined.scores[v] for v in test_ids],
                                        [test_tab.scores[v] for v in test_ids])
            rows.append(row)
    return {"kind": "ensemble_experiment", "seeds": seeds, "bucket": bucket,
            "train_fraction": train_fraction, "aggregation": aggregation,
            "rows": rows}


def run_feature_experiment(corpus: Corpus, configs, seeds=DEFAULT_SEEDS,
                           train_fraction=0.8, aggregation="median",
                           workers=1) -> dict:
    """Per-feature protocol: for every config and seed, train on the split,
    aggregate per video, score validation SRCC per term; report mean and
    population variance over seeds plus the best feature per modality.
    A config that fails records its first error instead of aborting the run."""
    seeds = list(seeds)
    fits = _fit_all(corpus, configs, seeds, train_fraction, aggregation, workers)
    return _feature_report(corpus, configs, fits, seeds, train_fraction, aggregation)


def run_ensemble_experiment(corpus: Corpus, configs, seeds=DEFAULT_SEEDS,
                            bucket=0.05, train_fraction=0.8,
                            aggregation="median", test_labels=None,
                            workers=1) -> dict:
    """Ensemble protocol: per seed and term, train the selected per-modality
    models, grid-search simplex weights on the validation split, and
    optionally score a held-out test label table.  Any failure raises."""
    seeds = list(seeds)
    fits = _fit_all(corpus, configs, seeds, train_fraction, aggregation, workers)
    return _ensemble_report(corpus, configs, fits, seeds, bucket, train_fraction,
                            aggregation, test_labels)


def run_full_experiment(corpus: Corpus, feature_configs, ensemble_configs,
                        seeds=DEFAULT_SEEDS, bucket=0.05, train_fraction=0.8,
                        aggregation="median", test_labels=None, workers=1) -> dict:
    """Both protocols over one set of fits: a config that appears in both
    lists is trained once per seed and term.  With no ensemble configs the
    grid search is skipped and the ensemble section has an empty `rows`."""
    seeds = list(seeds)
    fits = _fit_all(corpus, list(feature_configs) + list(ensemble_configs), seeds,
                    train_fraction, aggregation, workers)
    return {"features": _feature_report(corpus, feature_configs, fits, seeds,
                                        train_fraction, aggregation),
            "ensemble": _ensemble_report(corpus, ensemble_configs, fits, seeds, bucket,
                                         train_fraction, aggregation, test_labels)}


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


def write_prediction_csv(table: PredictionTable, path):
    """Exported scores are clamped into [0, 1]; raw scores stay internal."""
    with open(path, "w", newline="") as fh:
        for vid in table.scores:
            fh.write(f"{vid},{clamp_unit(table.scores[vid])!r},{table.coverage[vid]}\n")
