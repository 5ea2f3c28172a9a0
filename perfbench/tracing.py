"""Span recording from outside the library, and the per-layer metrics
computed from the spans.

`Tracer` replaces each traced function wherever it is bound: in its own
module and in every `vidmem` module that imported it by name (for example
`srcc` in `ensemble`, `harness` and `cli`).  Model methods are wrapped on
their class.  Spans (name, start, end, parent, counts) stay in memory; the
caller writes them out when the run ends.  Leaving the `with` block puts
every original back.

A layer's time metric is its self time: span duration minus the part of
the span its child spans cover.  Spans on the experiment's worker threads
include time spent waiting for the interpreter lock, so with two workers
the self times of one iteration can add up to more than its wall time.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import json
import logging
import math
import sys
import threading
import time

from common import import_vidmem

vidmem = import_vidmem()
from vidmem import (aggregate, cli, corpus, decay, ensemble, harness,  # noqa: E402
                    metrics, regress, textmodel)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(obj):
    """Lines a corpus table occupies in its CSV (or word-vector) file."""
    if isinstance(obj, corpus.FeatureSet):
        return sum(len(a) for a in obj.rows.values())
    if isinstance(obj, corpus.AnnotationLog):
        return sum(len(o) for o in obj.entries.values())
    if isinstance(obj, corpus.CaptionSet):
        return sum(len(c) for c in obj.captions.values())
    if isinstance(obj, corpus.LabelTable):
        return len(obj.scores)
    if isinstance(obj, corpus.WordVectorTable):
        return len(obj.vectors)
    return 0


def _grid_candidates(args, kwargs, result):
    k = len(_arg(args, kwargs, 0, "tables"))
    B = round(1.0 / _arg(args, kwargs, 2, "bucket", 0.05))
    return {"candidates": math.comb(B + k - 1, k - 1)}


def _train_key(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    labels = _arg(args, kwargs, 2, "labels")
    key = (config.feature, config.model, json.dumps(config.hyper, sort_keys=True),
           _arg(args, kwargs, 4, "seed"), labels.term)
    return {"key": key}


# (span name, module, attribute, counts from (args, kwargs, result))
FUNCTIONS = [
    ("cli.main", cli, "main", None),
    ("corpus.load_feature_csv", corpus, "load_feature_csv", lambda a, k, r: {"lines": _rows(r)}),
    ("corpus.load_annotations_csv", corpus, "load_annotations_csv",
     lambda a, k, r: {"lines": _rows(r)}),
    ("corpus.load_captions_csv", corpus, "load_captions_csv", lambda a, k, r: {"lines": _rows(r)}),
    ("corpus.load_labels_csv", corpus, "load_labels_csv", lambda a, k, r: {"lines": _rows(r)}),
    ("corpus.load_word_vectors", corpus, "load_word_vectors", lambda a, k, r: {"lines": _rows(r)}),
    ("corpus.write_feature_csv", corpus, "write_feature_csv",
     lambda a, k, r: {"lines": _rows(_arg(a, k, 0, "feature_set"))}),
    ("corpus.write_labels_csv", corpus, "write_labels_csv",
     lambda a, k, r: {"lines": _rows(_arg(a, k, 0, "table"))}),
    ("corpus.write_annotations_csv", corpus, "write_annotations_csv",
     lambda a, k, r: {"lines": _rows(_arg(a, k, 0, "log"))}),
    ("corpus.write_captions_csv", corpus, "write_captions_csv",
     lambda a, k, r: {"lines": _rows(_arg(a, k, 0, "caption_set"))}),
    ("decay.fit_decay", decay, "fit_decay",
     lambda a, k, r: {"iterations": r.iterations_run, "obs": _rows(_arg(a, k, 0, "log"))}),
    ("decay.adjust_labels", decay, "adjust_labels", None),
    ("metrics.srcc", metrics, "srcc", lambda a, k, r: {"elems": len(_arg(a, k, 0, "predictions"))}),
    ("regress.fit_linear", regress, "fit_linear",
     lambda a, k, r: {"sweeps": r.history.get("sweeps", 0)}),
    ("regress.fit_svr", regress, "fit_svr",
     lambda a, k, r: {"pair_updates": r.history["iterations"]}),
    ("textmodel.gru_train", textmodel, "gru_train",
     lambda a, k, r: {"epochs": sum(1 for e in r if "epoch" in e)}),
    ("textmodel.embed", textmodel, "embed",
     lambda a, k, r: {"key": tuple(_arg(a, k, 0, "tokens"))}),
    ("aggregate.aggregate_rows", aggregate, "aggregate_rows",
     lambda a, k, r: {"rows": sum(len(v) for v in _arg(a, k, 0, "per_row_scores").values()),
                      "fallback": sum(1 for c in r.coverage.values() if c == "fallback")}),
    ("ensemble.grid_search", ensemble, "grid_search", _grid_candidates),
    ("ensemble.apply_weights", ensemble, "apply_weights", None),
    ("harness.generate_synthetic", harness, "generate_synthetic", None),
    ("harness.split", harness, "split", None),
    ("harness.train_feature_model", harness, "train_feature_model", _train_key),
    ("harness.predict_table", harness, "predict_table", None),
    ("harness.run_feature_experiment", harness, "run_feature_experiment", None),
    ("harness.run_ensemble_experiment", harness, "run_ensemble_experiment", None),
    ("harness.run_full_experiment", harness, "run_full_experiment", None),
    ("harness.report_to_json", harness, "report_to_json", None),
    ("harness.report_to_text", harness, "report_to_text", None),
]

METHODS = [
    ("regress.LinearModel.predict", regress.LinearModel, "predict", None),
    ("regress.SvrModel.predict", regress.SvrModel, "predict", None),
    ("textmodel.GruRegressor.predict_sequence", textmodel.GruRegressor, "predict_sequence", None),
]


class _SkipCounter(logging.Handler):
    """Reads the grid search's INFO record of skipped constant candidates."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.skipped = 0

    def emit(self, record):
        if record.msg.startswith("grid search skipped"):
            self.skipped += int(record.args[0])


class Tracer:
    """Context manager that records spans while the library is patched."""

    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, thread, counts
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._skips = _SkipCounter()
        self._log_level = None

    # -- span stack -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident()}
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            tracer.spans.append(span)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _executor(self):
        """A ThreadPoolExecutor whose tasks start under the submitter's span."""
        tracer = self

        class TracingExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.stack = [] if parent is None else [parent]
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []

                return super().submit(run, *args, **kwargs)

        return TracingExecutor

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            modules = [m for n, m in sorted(sys.modules.items())
                       if n == "vidmem" or n.startswith("vidmem.")]
            for name, module, attr, counts in FUNCTIONS:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, counts)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            for name, cls, attr, counts in METHODS:
                self._set(cls, attr, self.wrap(name, vars(cls)[attr], counts))
            self._set(harness, "ThreadPoolExecutor", self._executor())
            log = logging.getLogger(ensemble.__name__)
            self._log_level = log.level
            log.setLevel(logging.INFO)
            log.addHandler(self._skips)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        log = logging.getLogger(ensemble.__name__)
        log.removeHandler(self._skips)
        if self._log_level is not None:
            log.setLevel(self._log_level)

    def __exit__(self, *exc):
        self._restore()
        return False

    @property
    def skipped_constant(self):
        return self._skips.skipped


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans):
    """Span id -> duration minus the union of its children's intervals
    (children may run in parallel on worker threads)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "metrics.srcc_s": "s", "metrics.srcc_calls": "count", "metrics.srcc_elems_per_s": "1/s",
    "ensemble.grid_search_s": "s", "ensemble.candidates": "count",
    "ensemble.candidates_per_s": "1/s", "ensemble.skipped_constant": "count",
    "ensemble.apply_weights_s": "s",
    "aggregate.aggregate_rows_s": "s", "aggregate.rows_in": "count",
    "aggregate.fallback_videos": "count",
    "harness.train_s": "s", "harness.train_calls": "count", "harness.fit_unique_ratio": "ratio",
    "harness.predict_table_s": "s", "harness.report_render_s": "s",
    "regress.fit_linear_s": "s", "regress.fit_linear_calls": "count",
    "regress.lasso_sweeps": "count", "regress.predict_s": "s",
    "regress.fit_svr_s": "s", "regress.fit_svr_calls": "count",
    "regress.svr_pair_updates": "count",
    "textmodel.gru_train_s": "s", "textmodel.gru_epochs": "count",
    "textmodel.gru_epoch_s": "s", "textmodel.predict_sequence_s": "s",
    "textmodel.embed_calls": "count", "textmodel.embed_unique_ratio": "ratio",
    "corpus.load_s": "s", "corpus.load_lines": "count", "corpus.load_lines_per_s": "1/s",
    "corpus.write_s": "s", "corpus.write_lines": "count",
    "harness.generate_synthetic_s": "s",
    "decay.fit_s": "s", "decay.iterations": "count", "decay.obs_per_s": "1/s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}

# metrics that are counts of work, which must repeat exactly between runs
COUNTS = tuple(n for n, u in PER_LAYER.items() if u in ("count", "ratio"))


def layer_metrics(spans, skipped_constant=0) -> dict:
    """Per-layer metrics of one traced iteration (or one traced set-up)."""
    selft = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def spans_of(prefix):
        return [s for name, group in by_name.items() if name.startswith(prefix) for s in group]

    def t(prefix):
        return sum((selft[s["id"]] for s in spans_of(prefix)), 0.0)

    def inclusive(prefix):
        return sum((s["end"] - s["start"] for s in spans_of(prefix)), 0.0)

    def n(prefix):
        return len(spans_of(prefix))

    def c(prefix, key):
        return sum(s["counts"][key] for s in spans_of(prefix))

    embeds = spans_of("textmodel.embed")
    trains = spans_of("harness.train_feature_model")
    srcc_s, grid_s = t("metrics.srcc"), t("ensemble.grid_search")
    load_s, fit_s = t("corpus.load_"), t("decay.fit_decay")
    gru_s, epochs = t("textmodel.gru_train"), c("textmodel.gru_train", "epochs")
    return {
        "metrics.srcc_s": srcc_s,
        "metrics.srcc_calls": n("metrics.srcc"),
        "metrics.srcc_elems_per_s": _ratio(c("metrics.srcc", "elems"), inclusive("metrics.srcc")),
        "ensemble.grid_search_s": grid_s,
        "ensemble.candidates": c("ensemble.grid_search", "candidates"),
        "ensemble.candidates_per_s": _ratio(c("ensemble.grid_search", "candidates"),
                                            inclusive("ensemble.grid_search")),
        "ensemble.skipped_constant": skipped_constant,
        "ensemble.apply_weights_s": t("ensemble.apply_weights"),
        "aggregate.aggregate_rows_s": t("aggregate.aggregate_rows"),
        "aggregate.rows_in": c("aggregate.aggregate_rows", "rows"),
        "aggregate.fallback_videos": c("aggregate.aggregate_rows", "fallback"),
        "harness.train_s": t("harness.train_feature_model"),
        "harness.train_calls": len(trains),
        "harness.fit_unique_ratio": _ratio(len({s["counts"]["key"] for s in trains}), len(trains)),
        "harness.predict_table_s": t("harness.predict_table"),
        "harness.report_render_s": t("harness.report_to_"),
        "regress.fit_linear_s": t("regress.fit_linear"),
        "regress.fit_linear_calls": n("regress.fit_linear"),
        "regress.lasso_sweeps": c("regress.fit_linear", "sweeps"),
        "regress.predict_s": t("regress.LinearModel.predict") + t("regress.SvrModel.predict"),
        "regress.fit_svr_s": t("regress.fit_svr"),
        "regress.fit_svr_calls": n("regress.fit_svr"),
        "regress.svr_pair_updates": c("regress.fit_svr", "pair_updates"),
        "textmodel.gru_train_s": gru_s,
        "textmodel.gru_epochs": epochs,
        "textmodel.gru_epoch_s": _ratio(gru_s, epochs),
        "textmodel.predict_sequence_s": t("textmodel.GruRegressor.predict_sequence"),
        "textmodel.embed_calls": len(embeds),
        "textmodel.embed_unique_ratio": _ratio(len({s["counts"]["key"] for s in embeds}),
                                               len(embeds)),
        "corpus.load_s": load_s,
        "corpus.load_lines": c("corpus.load_", "lines"),
        "corpus.load_lines_per_s": _ratio(c("corpus.load_", "lines"), inclusive("corpus.load_")),
        "corpus.write_s": t("corpus.write_"),
        "corpus.write_lines": c("corpus.write_", "lines"),
        "harness.generate_synthetic_s": t("harness.generate_synthetic"),
        "decay.fit_s": fit_s,
        "decay.iterations": c("decay.fit_decay", "iterations"),
        "decay.obs_per_s": _ratio(c("decay.fit_decay", "obs"), inclusive("decay.fit_decay")),
        "cli.self_s": t("cli.main"),
    }
