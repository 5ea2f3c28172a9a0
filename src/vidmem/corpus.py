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
class Observation:
    """One recognition trial: was the repeat detected, and after what delay."""

    recognized: int
    delay_seconds: float

    def __post_init__(self):
        if self.recognized not in (0, 1):
            raise ValueError(f"recognized must be 0 or 1, got {self.recognized}")
        if not (self.delay_seconds > 0) or not math.isfinite(self.delay_seconds):
            raise ValueError(f"delay must be positive and finite, got {self.delay_seconds}")


@dataclass(frozen=True)
class AnnotationLog:
    """Per-video ordered recognition observations."""

    entries: dict[str, tuple[Observation, ...]]

    def __post_init__(self):
        for vid, obs in self.entries.items():
            _check_video_id(vid)
            if len(obs) == 0:
                raise ValueError(f"video {vid!r} has no observations")

    @property
    def video_ids(self):
        return list(self.entries)


@dataclass(frozen=True)
class FeatureSet:
    """One named feature table: zero or more fixed-width rows per video."""

    modality: str
    name: str
    dimension: int
    rows: dict[str, np.ndarray]  # video id -> (n_rows, dimension) array

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        for vid, arr in self.rows.items():
            _check_video_id(vid)
            if arr.ndim != 2 or arr.shape[1] != self.dimension:
                raise ValueError(f"video {vid!r}: rows have width {arr.shape}, expected {self.dimension}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"video {vid!r}: non-finite feature value")

    @property
    def video_ids(self):
        return list(self.rows)


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

    @property
    def video_ids(self):
        return list(self.scores)


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
    if not vid or any(ch.isspace() for ch in vid) or "," in vid:
        raise ValueError(f"invalid video id {vid!r}")


def _parse_float(value, path, line_no, what):
    try:
        x = float(value)
    except ValueError:
        raise ParseError(path, line_no, f"non-numeric {what}: {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(path, line_no, f"non-finite {what}: {value!r}")
    return x


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            yield line_no, row


def load_feature_csv(path, modality, name):
    """Load `video_id,f0,...,f(d-1)` rows; multiple lines per video allowed."""
    rows_by_vid: dict[str, list[list[float]]] = {}
    dimension = None
    for line_no, row in _read_csv_rows(path):
        if len(row) < 2:
            raise ParseError(path, line_no, "expected video id plus at least one feature value")
        vid = row[0].strip()
        values = [_parse_float(v, path, line_no, "feature value") for v in row[1:]]
        if dimension is None:
            dimension = len(values)
        elif len(values) != dimension:
            raise ParseError(path, line_no, f"dimension mismatch: got {len(values)}, expected {dimension}")
        rows_by_vid.setdefault(vid, []).append(values)
    if dimension is None:
        raise ParseError(path, 0, "empty feature file")
    arrays = {vid: np.asarray(vals, dtype=float) for vid, vals in rows_by_vid.items()}
    return FeatureSet(modality=modality, name=name, dimension=dimension, rows=arrays)


def load_annotations_csv(path):
    """Load `video_id,delay_seconds,recognized` rows into an AnnotationLog."""
    entries: dict[str, list[Observation]] = {}
    for line_no, row in _read_csv_rows(path):
        if len(row) != 3:
            raise ParseError(path, line_no, f"expected 3 fields, got {len(row)}")
        vid = row[0].strip()
        delay = _parse_float(row[1], path, line_no, "delay")
        if delay <= 0:
            raise ParseError(path, line_no, f"nonpositive delay {delay}")
        rec_raw = row[2].strip()
        if rec_raw not in ("0", "1"):
            raise ParseError(path, line_no, f"recognized must be 0 or 1, got {rec_raw!r}")
        entries.setdefault(vid, []).append(Observation(int(rec_raw), delay))
    if not entries:
        raise ParseError(path, 0, "empty annotation file")
    return AnnotationLog({vid: tuple(obs) for vid, obs in entries.items()})


def load_captions_csv(path):
    """Load `video_id,"caption text"` rows (standard CSV quoting)."""
    caps: dict[str, list[str]] = {}
    for line_no, row in _read_csv_rows(path):
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(row)}")
        vid, text = row[0].strip(), row[1]
        if not text.strip():
            raise ParseError(path, line_no, "empty caption")
        caps.setdefault(vid, []).append(text)
    if not caps:
        raise ParseError(path, 0, "empty caption file")
    try:
        return CaptionSet({vid: tuple(c) for vid, c in caps.items()})
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from None


def load_labels_csv(path, term):
    """Load `video_id,score` rows; scores must lie in [0, 1]."""
    scores: dict[str, float] = {}
    for line_no, row in _read_csv_rows(path):
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(row)}")
        vid = row[0].strip()
        score = _parse_float(row[1], path, line_no, "score")
        if not 0.0 <= score <= 1.0:
            raise ParseError(path, line_no, f"score {score} outside [0, 1]")
        scores[vid] = score
    if not scores:
        raise ParseError(path, 0, "empty label file")
    return LabelTable(term=term, scores=scores)


def load_prediction_csv(path):
    """Load `video_id,score` label rows or `video_id,score,coverage` rows as
    written by `write_prediction_csv`; any finite score is accepted."""
    scores: dict[str, float] = {}
    for line_no, row in _read_csv_rows(path):
        if len(row) not in (2, 3):
            raise ParseError(path, line_no, f"expected 2 or 3 fields, got {len(row)}")
        scores[row[0].strip()] = _parse_float(row[1], path, line_no, "score")
    if not scores:
        raise ParseError(path, 0, "empty prediction file")
    return scores


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
    """Inverse of load_feature_csv; preserves per-video row order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, arr in feature_set.rows.items():
            for row in arr:
                writer.writerow([vid] + [repr(float(v)) for v in row])


def write_labels_csv(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, score in table.scores.items():
            writer.writerow([vid, repr(float(score))])


def write_annotations_csv(log, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, observations in log.entries.items():
            for obs in observations:
                writer.writerow([vid, repr(float(obs.delay_seconds)), obs.recognized])


def write_captions_csv(caption_set, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for vid, caps in caption_set.captions.items():
            for cap in caps:
                writer.writerow([vid, cap])
