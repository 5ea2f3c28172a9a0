"""Data model and file loaders for the memorability corpus.

All interchange is CSV (features, captions, labels, annotations) plus the
standard token-per-line text format for pretrained word vectors.  Loaders
validate eagerly and report the offending line number; nothing but a UTF-8
byte-order mark is dropped silently.  Loaded tables are treated as immutable.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import re
import string
from dataclasses import dataclass, field

import numpy as np

MODALITIES = ("audio", "image", "video", "text")
TERMS = ("short", "long")

_PUNCT = re.compile(f"[{re.escape(string.punctuation)}]")  # faster than str.translate


class ParseError(ValueError):
    """A malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class TokenizeError(ValueError):
    """Caption produced no tokens."""


def tokenize(caption: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    if not caption or not caption.strip():
        raise TokenizeError("empty caption")
    tokens = _PUNCT.sub("", caption.lower()).split()
    if not tokens:
        raise TokenizeError(f"caption {caption!r} contains no tokens")
    return tokens


@dataclass(frozen=True)
class AnnotationLog:
    """Recognition trials as three parallel columns, one entry per trial: the
    video id, the delay before the repeat, and whether it was recognized.

    `groups` is `(videos, order, counts)`: the distinct video ids in
    first-appearance order, the trial indices grouped by video (trials in
    column order), and each video's trial count.  `entries`, built on first
    read, maps each video id to its block of `order`.
    """

    video_id: tuple[str, ...]
    delay_seconds: np.ndarray
    recognized: np.ndarray
    groups: tuple[list[str], np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                             compare=False)

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
        videos, order, counts = _group_by_video(self.video_id)
        video_id = np.empty(len(order), dtype=object)
        video_id[order] = np.repeat(np.array(videos, dtype=object), counts)
        object.__setattr__(self, "video_id", tuple(video_id))
        object.__setattr__(self, "delay_seconds", delays)
        object.__setattr__(self, "recognized", recognized.astype(int))
        object.__setattr__(self, "groups", (videos, order, counts))

    @functools.cached_property
    def entries(self):
        videos, order, counts = self.groups
        return dict(zip(videos, np.split(order, np.cumsum(counts)[:-1])))


@dataclass(frozen=True)
class FeatureSet:
    """One named feature table: fixed-width rows, any number per video.

    `video_id` and the `(n_rows, d)` array `values` hold one entry per row,
    stored grouped by video: videos in first-appearance order, each video's
    rows in input order.  `videos` holds the distinct ids in that order,
    `starts` and `counts` each video's first row and row count in `values`,
    and `codes` maps each id to its position in `videos`.  `rows`, built on
    first read, maps each video id to its block of `values` (a view).
    """

    modality: str
    name: str
    video_id: tuple[str, ...]
    values: np.ndarray
    videos: list[str] = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    codes: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        values = np.asarray(self.values, dtype=float)
        if not (values.ndim == 2 and values.shape[1] >= 1 and len(values) == len(self.video_id)):
            raise ValueError("values must be an (n_rows, d >= 1) array with one row per video id")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite feature value")
        videos, order, counts = _group_by_video(self.video_id)
        object.__setattr__(self, "video_id",
                           tuple(np.repeat(np.array(videos, dtype=object), counts)))
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "videos", videos)
        object.__setattr__(self, "starts", np.cumsum(counts) - counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "codes", dict(zip(videos, range(len(videos)))))

    @functools.cached_property
    def rows(self):
        return dict(zip(self.videos, np.split(self.values, self.starts[1:])))

    @property
    def dimension(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class CaptionSet:
    """1-5 human captions per video, each with at least one token."""

    captions: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for vid, caps in self.captions.items():
            _check_video_id(vid)
            if not 1 <= len(caps) <= 5:
                raise ValueError(f"video {vid!r}: expected 1-5 captions, got {len(caps)}")
            try:
                for caption in caps:
                    tokenize(caption)
            except TokenizeError as exc:
                raise ValueError(f"video {vid!r}: {exc}") from None


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
                ids.update(fs.videos)
        return sorted(ids)


def _is_video_id(vid):
    return vid.split() == [vid] and "," not in vid  # not empty, no whitespace or comma


def _check_video_id(vid):
    if not _is_video_id(vid):
        raise ValueError(f"invalid video id {vid!r}")


def _group_by_video(video_id):
    """Order the entries of one id column by video, videos in first-appearance
    order and entries in column order; each distinct id is checked once.

    Returns the distinct ids, the entry order, and each video's entry count.
    The column is cut into runs of equal ids, and the runs, not the entries,
    are ranked by their id's first appearance and stably sorted.  An object
    array is read without a copy.  Only the first id of each run is hashed,
    so the tables intern their id columns from the result: each entry
    becomes its video's object in the distinct ids, in one array gather.
    """
    ids = np.asarray(video_id, dtype=object)
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    if len(ids):
        starts = np.r_[0, starts]
    runs = ids[starts].tolist()
    first = {vid: k for k, vid in enumerate(dict.fromkeys(runs))}  # rank by first appearance
    for vid in first:
        _check_video_id(vid)
    codes = np.repeat(np.fromiter(map(first.__getitem__, runs), np.intp, len(runs)),
                      np.diff(starts, append=len(ids)))
    return list(first), np.argsort(codes, kind="stable"), np.bincount(codes, minlength=len(first))


@contextlib.contextmanager
def _decoded(path):
    """Raise a decode error from reading `path` as a ParseError at the line
    that holds the file's first byte that does not decode.  The line is
    counted in the file's bytes: a text reader's error gives the offset of
    the byte within the chunk it was decoding."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        line_no = len(data[:exc.start + 1].splitlines())  # the byte there is no line break
        raise ParseError(path, line_no, f"not valid {exc.encoding}: byte "
                                        f"{exc.object[exc.start]:#04x} ({exc.reason})") from None


def _parse_float(value, path, line_no, what):
    try:
        x = float(value)
    except ValueError:
        raise ParseError(path, line_no, f"non-numeric {what}: {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(path, line_no, f"non-finite {what}: {value!r}")
    return x


def read_records(path, what, fields=None, unique=False):
    """Yield `(line_no, video_id, raw fields)` for each non-blank CSV row.

    Checks the field count against `fields` (None: the id plus at least one
    value) and the video id (`unique`: at most one row per video); these
    errors and a file without rows raise ParseError with path:line.
    """
    seen: set[str] = set()
    with _decoded(path), open(path, newline="", encoding="utf-8-sig") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if fields is None and len(row) < 2:
                raise ParseError(path, line_no, "expected video id plus at least one value")
            if fields is not None and len(row) not in fields:
                *rest, last = map(str, fields)
                expected = f"{', '.join(rest)} or {last}" if rest else last
                raise ParseError(path, line_no, f"expected {expected} fields, got {len(row)}")
            vid = row[0].strip()
            try:
                _check_video_id(vid)
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if unique and vid in seen:
                raise ParseError(path, line_no, f"duplicate video id {vid!r}")
            seen.add(vid)
            yield line_no, vid, row
    if not seen:
        raise ParseError(path, 0, f"empty {what} file")


def _parse_columns(path, columns):
    """Fast path of the feature, annotation and prediction loaders: numpy's
    C reader parses every field of every line into an object id column and
    the value columns `columns(n)`, n the first line's comma count, decoding
    as `read_records` decodes.

    Returns `(video ids, table)`, the ids a view of the table's object
    column with one string object per row, or None where the record reader
    must re-read the file and decide: text that does not decode, a blank
    first line (such as a file without rows, on which loadtxt warns), a
    character the two readers treat apart (csv unquotes `"`; loadtxt strips
    the separators U+001C-U+001F around a number, float() does not; a `U`
    value column drops a trailing NUL), or a parse error.  The first line
    and those characters are found in the file's bytes, as each character
    is ASCII; loadtxt alone decodes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    first = re.match(rb"(?:\xef\xbb\xbf)?([^\r\n]*)", data).group(1)  # after a BOM
    if not first or any(c in data for c in b'"\x1c\x1d\x1e\x1f\x00'):
        return None
    del data  # not held while loadtxt parses
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            table = np.loadtxt(fh, dtype=[("id", "O"), *columns(first.count(b","))],
                               delimiter=",", comments=None, quotechar=None, ndmin=1)
        except ValueError:  # a UnicodeDecodeError too: the record reader names the line
            return None
    return table["id"], table


def load_feature_csv(path, modality, name):
    """Load `video_id,f0,...,f(d-1)` rows; multiple lines per video allowed."""
    parsed = _parse_columns(path, lambda commas: [("v", "f8", (commas,))])
    if parsed is not None:
        try:
            return FeatureSet(modality, name, parsed[0], parsed[1]["v"])
        except ValueError:
            pass
    video_id, values = [], []
    for line_no, vid, row in read_records(path, "feature"):
        x = [_parse_float(v, path, line_no, "feature value") for v in row[1:]]
        if values and len(x) != len(values[0]):
            raise ParseError(path, line_no,
                             f"dimension mismatch: got {len(x)}, expected {len(values[0])}")
        video_id.append(vid)
        values.append(x)
    return FeatureSet(modality, name, video_id, np.asarray(values, dtype=float))


def load_annotations_csv(path):
    """Load `video_id,delay_seconds,recognized` rows into an AnnotationLog."""
    parsed = _parse_columns(path, lambda commas: [("t", "f8"), ("r", "U2")])
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
    for line_no, vid, row in read_records(path, "annotation", (3,)):
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
    for line_no, vid, row in read_records(path, "caption", (2,)):
        try:
            tokenize(row[1])
        except TokenizeError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        video_caps = caps.setdefault(vid, [])
        if len(video_caps) == 5:
            raise ParseError(path, line_no, f"video {vid!r}: more than 5 captions")
        video_caps.append(row[1])
    return CaptionSet({vid: tuple(c) for vid, c in caps.items()})


def load_labels_csv(path, term):
    """Load `video_id,score` rows, one per video; scores must lie in [0, 1]."""
    scores = {}
    for line_no, vid, row in read_records(path, "label", (2,), unique=True):
        score = _parse_float(row[1], path, line_no, "score")
        if not 0.0 <= score <= 1.0:
            raise ParseError(path, line_no, f"score {score} outside [0, 1]")
        scores[vid] = score
    return LabelTable(term=term, scores=scores)


# score, coverage (read as anything) and raw score: the first line's count of
# commas takes 1-3 of them, so that a line of 1 or of 5 or more fields fails
_PREDICTION_COLUMNS = [("s", "f8"), ("c", "U1"), ("r", "f8")]


def load_prediction_csv(path):
    """Load `video_id,score` label rows, `video_id,score,coverage` rows, or
    `video_id,score,coverage,raw score` rows as `write_prediction_csv` writes
    them, one per video.  A row's raw score is read where it has one, else
    its score; any finite number is accepted."""
    parsed = _parse_columns(path, lambda commas: _PREDICTION_COLUMNS[:max(1, commas)])
    if parsed is not None:
        ids, table = parsed
        numbers = [table[name] for name in ("s", "r") if name in table.dtype.names]
        scores = dict(zip(ids, numbers[-1].tolist()))
        if (len(scores) == len(ids) and np.isfinite(numbers).all()
                and all(map(_is_video_id, scores))):
            return scores
    scores = {}
    for line_no, vid, row in read_records(path, "prediction", (2, 3, 4), unique=True):
        scores[vid] = _parse_float(row[1], path, line_no, "score")
        if len(row) == 4:
            scores[vid] = _parse_float(row[3], path, line_no, "raw score")
    return scores


def clamp_unit(x: float) -> float:
    """[0, 1] clamp used only when scores are exported."""
    return min(1.0, max(0.0, x))


def write_prediction_csv(table, path):
    """One `video_id,score,coverage,raw score` row per video of a
    `PredictionTable`: the score clamped into [0, 1] for label-style readers,
    and the raw score that `load_prediction_csv` reads back, bit for bit."""
    ids = _quoted_ids(table.scores)
    with open(path, "w", newline="") as fh:
        for vid, score in table.scores.items():
            fh.write(f"{ids[vid]},{clamp_unit(score)!r},{table.coverage[vid]},{score!r}\n")


def load_word_vectors(path):
    """Load a `token f0 ... f(D-1)` text file; D is inferred from line 1."""
    vectors: dict[str, np.ndarray] = {}
    dimension = None
    with _decoded(path), open(path, encoding="utf-8-sig") as fh:
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


class _Echo:
    """A file whose `write` returns the text, so that `csv.writer` formats
    a row into a string."""

    def write(self, text):
        return text


_QUOTABLE = re.compile(r'[\s",\x00]')  # holds every character `csv.writer` quotes


def _quoted_ids(ids):
    """Each distinct id as `csv.writer` writes it in a field (an id may
    hold `"`), so that the writers below format the rest of each line
    themselves.  Only an empty id, or one that holds a `_QUOTABLE`
    character, goes through `csv.writer`; one scan of all the ids finds
    whether any does."""
    ids = dict.fromkeys(ids)
    quoted = dict(zip(ids, ids))
    if "" in ids or _QUOTABLE.search("".join(ids)):
        writer = csv.writer(_Echo(), lineterminator="")
        quoted.update((vid, writer.writerow([vid])) for vid in ids
                      if not vid or _QUOTABLE.search(vid))
    return quoted


# The writers below stream one line per row, with the bytes `csv.writer`
# writes: numbers never need quoting, and `_quoted_ids` quotes the ids.

def write_feature_csv(feature_set, path):
    """Inverse of load_feature_csv; writes the rows grouped by video."""
    ids = _quoted_ids(feature_set.videos)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{ids[vid]},{','.join(map(repr, row))}\r\n"
                      for vid, row in zip(feature_set.video_id, feature_set.values.tolist()))


def write_labels_csv(table, path):
    ids = _quoted_ids(table.scores)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{ids[vid]},{float(score)!r}\r\n" for vid, score in table.scores.items())


_WRITE_ROWS = 4096  # trials the annotation writer turns into Python objects at a time


def write_annotations_csv(log, path):
    """Inverse of load_annotations_csv; writes the trials in column order."""
    ids = _quoted_ids(log.groups[0])
    with open(path, "w", newline="") as fh:
        for i in range(0, len(log.video_id), _WRITE_ROWS):
            rows = slice(i, i + _WRITE_ROWS)
            fh.writelines(f"{ids[vid]},{delay!r},{hit}\r\n" for vid, delay, hit
                          in zip(log.video_id[rows], log.delay_seconds[rows].tolist(),
                                 log.recognized[rows].tolist()))


def write_captions_csv(caption_set, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, caps in caption_set.captions.items():
            for cap in caps:
                writer.writerow([vid, cap])
