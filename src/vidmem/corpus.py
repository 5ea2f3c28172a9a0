"""Data model and file loaders for the memorability corpus.

All interchange is CSV (features, captions, labels, annotations) plus the
standard token-per-line text format for pretrained word vectors.  Loaders
validate eagerly and report the offending line number; nothing is dropped
silently.  Loaded tables are treated as immutable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

MODALITIES = ("audio", "image", "video", "text")
TERMS = ("short", "long")


class ParseError(ValueError):
    """A malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass(frozen=True)
class AnnotationLog:
    """Recognition trials as three parallel columns, one entry per trial: the
    video id, the delay before the repeat, and whether it was recognized.

    `entries` maps each video id to the indices of its trials, videos in
    first-appearance order and trials in column order.
    """

    video_id: tuple[str, ...]
    delay_seconds: np.ndarray
    recognized: np.ndarray
    entries: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        delays = np.asarray(self.delay_seconds, dtype=float)
        recognized = np.asarray(self.recognized)
        if not (delays.ndim == recognized.ndim == 1
                and len(self.video_id) == len(delays) == len(recognized)):
            raise ValueError("annotation columns must be 1-d and of equal length")
        if not np.all((delays > 0) & np.isfinite(delays)):
            raise ValueError("delays must be positive and finite")
        if not np.all((recognized == 0) | (recognized == 1)):
            raise ValueError("recognized must be 0 or 1")
        videos, order, bounds = _group_by_video(self.video_id)
        object.__setattr__(self, "video_id", tuple(self.video_id))
        object.__setattr__(self, "delay_seconds", delays)
        object.__setattr__(self, "recognized", recognized.astype(int))
        object.__setattr__(self, "entries", dict(zip(videos, np.split(order, bounds))))


@dataclass(frozen=True)
class FeatureSet:
    """One named feature table: fixed-width rows, any number per video.

    `video_id` and the `(n_rows, d)` array `values` hold one entry per row,
    stored grouped by video: videos in first-appearance order, each video's
    rows in input order.  `rows` maps each video id to its block of `values`
    (a view).
    """

    modality: str
    name: str
    video_id: tuple[str, ...]
    values: np.ndarray
    rows: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        values = np.asarray(self.values, dtype=float)
        if not (values.ndim == 2 and values.shape[1] >= 1 and len(values) == len(self.video_id)):
            raise ValueError("values must be an (n_rows, d >= 1) array with one row per video id")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite feature value")
        videos, order, bounds = _group_by_video(self.video_id)
        values = values[order]
        object.__setattr__(self, "video_id", tuple(self.video_id[i] for i in order))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rows", dict(zip(videos, np.split(values, bounds))))

    @property
    def dimension(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class CaptionSet:
    """1-5 human captions per video."""

    captions: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for vid, caps in self.captions.items():
            _check_video_id(vid)
            if not 1 <= len(caps) <= 5:
                raise ValueError(f"video {vid!r}: expected 1-5 captions, got {len(caps)}")
            if any(not c for c in caps):
                raise ValueError(f"video {vid!r}: empty caption")


@dataclass(frozen=True)
class WordVectorTable:
    """Pretrained word vectors keyed by lowercase token."""

    dimension: int
    vectors: dict[str, np.ndarray]

    def get(self, token):
        return self.vectors.get(token.lower())


@dataclass(frozen=True)
class LabelTable:
    """Memorability scores in [0, 1] for one term (short or long)."""

    term: str
    scores: dict[str, float]

    def __post_init__(self):
        if self.term not in TERMS:
            raise ValueError(f"term must be one of {TERMS}, got {self.term!r}")
        for vid, s in self.scores.items():
            _check_video_id(vid)
            if not (0.0 <= s <= 1.0):
                raise ValueError(f"video {vid!r}: score {s} outside [0, 1]")


@dataclass
class Corpus:
    """Everything one experiment needs, already loaded and validated."""

    features: dict[str, FeatureSet] = field(default_factory=dict)
    captions: CaptionSet | None = None
    word_vectors: WordVectorTable | None = None
    labels: dict[str, LabelTable] = field(default_factory=dict)  # term -> table
    annotations: dict[str, AnnotationLog] = field(default_factory=dict)  # term -> log

    @property
    def video_ids(self):
        ids: set[str] = set()
        for tab in self.labels.values():
            ids.update(tab.scores)
        if not ids:
            for fs in self.features.values():
                ids.update(fs.rows)
        return sorted(ids)


def _check_video_id(vid):
    if vid.split() != [vid] or "," in vid:  # empty, or holds whitespace or a comma
        raise ValueError(f"invalid video id {vid!r}")


def _group_by_video(video_id):
    """Order the entries of one id column by video, videos in first-appearance
    order and entries in column order; each distinct id is checked once.

    Returns the distinct ids, the entry order, and the split points between
    videos in that order.
    """
    first: dict[str, int] = {}  # video id -> rank in first-appearance order
    codes = np.fromiter((first.setdefault(vid, len(first)) for vid in video_id), np.intp)
    for vid in first:
        _check_video_id(vid)
    order = np.argsort(codes, kind="stable")
    return list(first), order, np.cumsum(np.bincount(codes, minlength=len(first)))[:-1]


def _parse_float(value, path, line_no, what):
    try:
        x = float(value)
    except ValueError:
        raise ParseError(path, line_no, f"non-numeric {what}: {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(path, line_no, f"non-finite {what}: {value!r}")
    return x


def _read_records(path, what, fields=None, unique=False):
    """Yield `(line_no, video_id, raw fields)` for each non-blank CSV row.

    Checks the field count against `fields` (None: the id plus at least one
    value) and the video id (`unique`: at most one row per video); these
    errors and a file without rows raise ParseError with path:line.
    """
    seen: dict[str, str] = {}  # one string object per distinct id
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if fields is None and len(row) < 2:
                raise ParseError(path, line_no, "expected video id plus at least one value")
            if fields is not None and len(row) not in fields:
                expected = " or ".join(map(str, fields))
                raise ParseError(path, line_no, f"expected {expected} fields, got {len(row)}")
            vid = row[0].strip()
            try:
                _check_video_id(vid)
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if unique and vid in seen:
                raise ParseError(path, line_no, f"duplicate video id {vid!r}")
            yield line_no, seen.setdefault(vid, vid), row
    if not seen:
        raise ParseError(path, 0, f"empty {what} file")


def _parse_columns(path, columns):
    """Fast path of the feature and annotation loaders: numpy's C reader
    parses every field of every line into the structured dtype
    `columns(first line)`, the text decoded as `_read_records` decodes it.

    Returns `(video ids, table)` with one string object per distinct id, or
    None where the record reader must re-read the file and decide: a blank
    first line (such as a file without rows, on which loadtxt warns), a
    character the two readers treat apart (csv unquotes `"`; loadtxt strips
    the separators U+001C-U+001F around a number, float() does not), or a
    parse error.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
        fh.seek(0)
        text = fh.read()
        if not first.strip("\r\n") or any(c in text for c in '"\x1c\x1d\x1e\x1f'):
            return None
        del text  # not held while loadtxt parses
        fh.seek(0)
        try:
            table = np.loadtxt(fh, dtype=columns(first), delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
        except ValueError:
            return None
    seen: dict[str, str] = {}
    ids = table["id"].tolist()
    table["id"] = None  # the table keeps no second copy of each row's id
    video_id = list(map(seen.setdefault, ids, ids))
    return video_id, table


def load_feature_csv(path, modality, name):
    """Load `video_id,f0,...,f(d-1)` rows; multiple lines per video allowed."""
    parsed = _parse_columns(path, lambda first: [("id", "O"), ("v", "f8", (first.count(","),))])
    if parsed is not None:
        try:
            return FeatureSet(modality, name, parsed[0], parsed[1]["v"])
        except ValueError:
            pass
    video_id, values = [], []
    for line_no, vid, row in _read_records(path, "feature"):
        x = [_parse_float(v, path, line_no, "feature value") for v in row[1:]]
        if values and len(x) != len(values[0]):
            raise ParseError(path, line_no,
                             f"dimension mismatch: got {len(x)}, expected {len(values[0])}")
        video_id.append(vid)
        values.append(x)
    return FeatureSet(modality, name, video_id, np.asarray(values, dtype=float))


def load_annotations_csv(path):
    """Load `video_id,delay_seconds,recognized` rows into an AnnotationLog."""
    # `recognized` is an object column: a fixed-width one would drop a trailing NUL
    parsed = _parse_columns(path, lambda first: [("id", "O"), ("t", "f8"), ("r", "O")])
    if parsed is not None:
        video_id, table = parsed
        recognized = table["r"] == "1"
        if np.all(recognized | (table["r"] == "0")):
            try:
                # a copy of the delays: a view would keep the whole table alive
                return AnnotationLog(video_id, np.ascontiguousarray(table["t"]), recognized)
            except ValueError:
                pass
    video_id, delay_seconds, recognized = [], [], []
    for line_no, vid, row in _read_records(path, "annotation", (3,)):
        delay = _parse_float(row[1], path, line_no, "delay")
        if delay <= 0:
            raise ParseError(path, line_no, f"nonpositive delay {delay}")
        rec_raw = row[2].strip()
        if rec_raw not in ("0", "1"):
            raise ParseError(path, line_no, f"recognized must be 0 or 1, got {rec_raw!r}")
        video_id.append(vid)
        delay_seconds.append(delay)
        recognized.append(rec_raw == "1")
    return AnnotationLog(video_id, delay_seconds, recognized)


def load_captions_csv(path):
    """Load `video_id,"caption text"` rows (standard CSV quoting)."""
    caps: dict[str, list[str]] = {}
    for line_no, vid, row in _read_records(path, "caption", (2,)):
        if not row[1].strip():
            raise ParseError(path, line_no, "empty caption")
        video_caps = caps.setdefault(vid, [])
        if len(video_caps) == 5:
            raise ParseError(path, line_no, f"video {vid!r}: more than 5 captions")
        video_caps.append(row[1])
    return CaptionSet({vid: tuple(c) for vid, c in caps.items()})


def load_labels_csv(path, term):
    """Load `video_id,score` rows, one per video; scores must lie in [0, 1]."""
    scores: dict[str, float] = {}
    for line_no, vid, row in _read_records(path, "label", (2,), unique=True):
        score = _parse_float(row[1], path, line_no, "score")
        if not 0.0 <= score <= 1.0:
            raise ParseError(path, line_no, f"score {score} outside [0, 1]")
        scores[vid] = score
    return LabelTable(term=term, scores=scores)


def load_prediction_csv(path):
    """Load `video_id,score` label rows or `video_id,score,coverage` rows as
    written by `write_prediction_csv`, one per video; any finite score is
    accepted."""
    return {vid: _parse_float(row[1], path, line_no, "score")
            for line_no, vid, row in _read_records(path, "prediction", (2, 3), unique=True)}


def load_word_vectors(path):
    """Load a `token f0 ... f(D-1)` text file; D is inferred from line 1."""
    vectors: dict[str, np.ndarray] = {}
    dimension = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2 or not parts[0]:
                if not line.strip():
                    continue
                raise ParseError(path, line_no, "expected token plus vector components")
            token = parts[0].lower()
            if token in vectors:
                raise ParseError(path, line_no, f"duplicate token {token!r} (tokens are lowercased)")
            values = [_parse_float(v, path, line_no, "vector component") for v in parts[1:]]
            if dimension is None:
                dimension = len(values)
            elif len(values) != dimension:
                raise ParseError(path, line_no, f"expected {dimension} components, got {len(values)}")
            vectors[token] = np.asarray(values, dtype=float)
    if dimension is None:
        raise ParseError(path, 0, "empty word-vector file")
    return WordVectorTable(dimension=dimension, vectors=vectors)


def write_feature_csv(feature_set, path):
    """Inverse of load_feature_csv; writes the rows grouped by video."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([vid, *map(repr, row)] for vid, row
                                 in zip(feature_set.video_id, feature_set.values.tolist()))


def write_labels_csv(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, score in table.scores.items():
            writer.writerow([vid, repr(float(score))])


def write_annotations_csv(log, path):
    """Inverse of load_annotations_csv; writes the trials in column order."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(zip(log.video_id, map(repr, log.delay_seconds.tolist()),
                                     log.recognized.tolist()))


def write_captions_csv(caption_set, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, caps in caption_set.captions.items():
            for cap in caps:
                writer.writerow([vid, cap])
