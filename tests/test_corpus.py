import csv
import re

import numpy as np
import pytest

from vidmem import corpus
from vidmem.aggregate import PredictionTable
from vidmem.corpus import clamp_unit, write_prediction_csv


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestFeatureLoader:
    def test_groups_rows_by_video(self, tmp_path):
        p = write(tmp_path, "f.csv", "v1,0.1,0.2\nv1,0.3,0.4\n")
        fs = corpus.load_feature_csv(p, "video", "C3D")
        assert fs.dimension == 2
        assert fs.rows["v1"].shape == (2, 2)
        np.testing.assert_array_equal(fs.rows["v1"], [[0.1, 0.2], [0.3, 0.4]])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        p = write(tmp_path, "f.csv", "v1,0.1\nv2,0.1,0.2\n")
        with pytest.raises(corpus.ParseError) as exc:
            corpus.load_feature_csv(p, "video", "C3D")
        assert exc.value.line_no == 2

    def test_non_numeric_field(self, tmp_path):
        p = write(tmp_path, "f.csv", "v1,abc\n")
        with pytest.raises(corpus.ParseError):
            corpus.load_feature_csv(p, "video", "C3D")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "f.csv", "")
        with pytest.raises(corpus.ParseError):
            corpus.load_feature_csv(p, "video", "C3D")

    def test_per_second_audio_rows(self, tmp_path):
        # a 6-second video yields one row per second
        lines = "".join(f"v1,{','.join(['0.5'] * 128)}\n" for _ in range(6))
        fs = corpus.load_feature_csv(write(tmp_path, "a.csv", lines), "audio", "VGGish")
        assert fs.dimension == 128
        assert len(fs.rows["v1"]) == 6

    def test_round_trip(self, tmp_path):
        p = write(tmp_path, "f.csv", "v1,0.125,0.25\nv2,-1.5,3.0\nv1,0.5,0.75\n")
        fs = corpus.load_feature_csv(p, "image", "VGG")
        out = tmp_path / "out.csv"
        corpus.write_feature_csv(fs, out)
        fs2 = corpus.load_feature_csv(out, "image", "VGG")
        assert list(fs.rows) == list(fs2.rows)
        for vid in fs.rows:
            np.testing.assert_array_equal(fs.rows[vid], fs2.rows[vid])


    def test_interleaved_videos_grouped_in_first_appearance_order(self, tmp_path):
        p = write(tmp_path, "f.csv", "v1,0.1,0.2\nv2,0.3,0.4\nv1,0.5,0.6\n")
        fs = corpus.load_feature_csv(p, "video", "C3D")
        assert list(fs.rows) == ["v1", "v2"]
        assert fs.video_id == ("v1", "v1", "v2")
        np.testing.assert_array_equal(fs.values, [[0.1, 0.2], [0.5, 0.6], [0.3, 0.4]])
        np.testing.assert_array_equal(fs.rows["v1"], [[0.1, 0.2], [0.5, 0.6]])
        for rows in fs.rows.values():
            assert np.shares_memory(rows, fs.values)

    def test_round_trip_writes_rows_grouped_by_video(self, tmp_path):
        p = write(tmp_path, "f.csv", "v2,0.5\nv1,0.25\nv2,1.5\n")
        out = tmp_path / "out.csv"
        corpus.write_feature_csv(corpus.load_feature_csv(p, "video", "C3D"), out)
        assert out.read_text().replace("\r\n", "\n") == "v2,0.5\nv2,1.5\nv1,0.25\n"


class TestFeatureSet:
    def test_dimension_is_the_width_of_values(self):
        fs = corpus.FeatureSet("audio", "VGGish", ["v1"], [[0.5, 1.0, 2.0]])
        assert fs.dimension == 3
        with pytest.raises(TypeError):
            corpus.FeatureSet("audio", "VGGish", ["v1"], [[0.5]], dimension=1)

    @pytest.mark.parametrize("modality, video_id, values, message", [
        ("video", ("v1",), [[float("inf")]], "non-finite feature value"),
        ("video", ("v1",), np.zeros((1, 0)), r"values must be an \(n_rows, d >= 1\) array"),
        ("video", ("v1",), [[0.5], [0.7]], "with one row per video id"),
        ("video", ("v1", "v 2"), [[0.5], [0.7]], "invalid video id 'v 2'"),
        ("smell", ("v1",), [[0.5]], "unknown modality 'smell'"),
    ], ids=["non-finite", "width-0", "count-mismatch", "bad-id", "unknown-modality"])
    def test_invalid_columns_rejected(self, modality, video_id, values, message):
        with pytest.raises(ValueError, match=message):
            corpus.FeatureSet(modality, "C3D", video_id, values)


class TestAnnotationLoader:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "a.csv", "v1,75,1\nv1,80,0\n")
        log = corpus.load_annotations_csv(p)
        assert log.video_id == ("v1", "v1")
        np.testing.assert_array_equal(log.delay_seconds, [75.0, 80.0])
        np.testing.assert_array_equal(log.recognized, [1, 0])
        assert list(log.entries) == ["v1"]
        np.testing.assert_array_equal(log.entries["v1"], [0, 1])

    def test_nonpositive_delay(self, tmp_path):
        p = write(tmp_path, "a.csv", "v1,0,1\n")
        with pytest.raises(corpus.ParseError):
            corpus.load_annotations_csv(p)

    def test_fractional_delay_ok(self, tmp_path):
        p = write(tmp_path, "a.csv", "v1,74.96,1\n")
        log = corpus.load_annotations_csv(p)
        assert log.delay_seconds[0] == 74.96

    def test_bad_recognized(self, tmp_path):
        p = write(tmp_path, "a.csv", "v1,75,2\n")
        with pytest.raises(corpus.ParseError):
            corpus.load_annotations_csv(p)

    def test_interleaved_videos_grouped_in_first_appearance_order(self, tmp_path):
        p = write(tmp_path, "a.csv", "v2,75,1\nv1,80,0\nv2,90,0\n")
        log = corpus.load_annotations_csv(p)
        assert list(log.entries) == ["v2", "v1"]
        np.testing.assert_array_equal(log.entries["v2"], [0, 2])
        np.testing.assert_array_equal(log.entries["v1"], [1])

    def test_round_trip_keeps_trial_order(self, tmp_path):
        text = "v2,75.5,1\nv1,80.0,0\nv2,90.25,0\n"
        out = tmp_path / "out.csv"
        corpus.write_annotations_csv(corpus.load_annotations_csv(write(tmp_path, "a.csv", text)),
                                     out)
        assert out.read_text().replace("\r\n", "\n") == text


class TestAnnotationLog:
    @pytest.mark.parametrize("video_id, delays, recognized, message", [
        (("v1",), (0.0,), (1,), "delays must be positive and finite"),
        (("v1",), (float("nan"),), (1,), "delays must be positive and finite"),
        (("v1", "v1"), (75.0, 75.0), (1, 2), "recognized must be 0 or 1"),
        (("v1",), (75.0, 80.0), (1, 0), "columns must be 1-d and of equal length"),
        (("v 1",), (75.0,), (1,), "invalid video id 'v 1'"),
    ])
    def test_invalid_columns_rejected(self, video_id, delays, recognized, message):
        with pytest.raises(ValueError, match=message):
            corpus.AnnotationLog(video_id, delays, recognized)


def _grouped_by_dict(ids):
    """The reference grouping: rank each id by its first appearance, then
    sort the entries stably by rank."""
    first = {vid: k for k, vid in enumerate(dict.fromkeys(ids))}
    codes = np.fromiter(map(first.__getitem__, ids), np.intp, len(ids))
    return list(first), np.argsort(codes, kind="stable"), np.bincount(codes, minlength=len(first))


def test_group_by_video_matches_reference():
    """Grouped and interleaved columns give the reference's videos, order
    and counts, from a list or a `U` array."""
    rng = np.random.default_rng(0)
    for case in range(200):
        n_videos = [0, 1, *rng.integers(2, 30, 3)][case % 5]
        names = [f"v{k}" * int(rng.integers(1, 4)) for k in rng.permutation(max(n_videos, 1))]
        counts = rng.integers(1, 6, n_videos)
        ids = [vid for vid, c in zip(names, counts) for _ in range(c)]
        if case % 2:  # interleaved
            ids = [ids[k] for k in rng.permutation(len(ids))]
        expected = _grouped_by_dict(ids)
        for column in (ids, np.array(ids, dtype=f"U{max(map(len, ids), default=1)}")):
            videos, order, counts = corpus._group_by_video(column)
            assert videos == expected[0] and all(type(v) is str for v in videos)
            assert np.array_equal(order, expected[1])
            assert np.array_equal(counts, expected[2])


def test_feature_set_columns_match_dict_grouping():
    """On 200 seeded id columns (grouped or interleaved, 1-5 rows per video)
    `videos`, `codes`, `starts` and `counts` find each video's rows in
    `values` as a dict grouping the rows by id in input order holds them;
    `rows` is built only when read, and holds the same."""
    rng = np.random.default_rng(1)
    for case in range(200):
        n_videos = int(rng.integers(1, 30))
        names = [f"v{k}" * int(rng.integers(1, 4)) for k in rng.permutation(n_videos)]
        ids = [vid for vid, c in zip(names, rng.integers(1, 6, n_videos)) for _ in range(c)]
        if case % 2:  # interleaved
            ids = [ids[k] for k in rng.permutation(len(ids))]
        values = rng.normal(size=(len(ids), 3))
        expected = {}
        for vid, row in zip(ids, values.tolist()):
            expected.setdefault(vid, []).append(row)
        fs = corpus.FeatureSet("video", "C3D", ids, values)
        assert fs.videos == list(expected)
        assert fs.codes == {vid: k for k, vid in enumerate(expected)}
        assert fs.counts.tolist() == [len(rows) for rows in expected.values()]
        assert fs.starts.tolist() == [0, *np.cumsum(fs.counts)[:-1].tolist()]
        for vid, k in fs.codes.items():
            assert fs.values[fs.starts[k]:fs.starts[k] + fs.counts[k]].tolist() == expected[vid]
        assert "rows" not in fs.__dict__
        assert {vid: rows.tolist() for vid, rows in fs.rows.items()} == expected


def test_annotations_parse_once_whatever_the_id_widths(tmp_path, monkeypatch):
    """The fast path reads the file with one loadtxt call, with an object id
    column, whether the ids are ascending numbers, of mixed widths in any
    order, or longer than any fixed width would hold; the log holds one str
    object per distinct id."""
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(k["dtype"]) or loadtxt(*a, **k))
    p = tmp_path / "a.csv"
    for ids in ([str(k // 3 + 1) for k in range(7500)], ["v1", "v22", "v3", "v1"],
                ["x" * 2000, "v1"]):
        calls.clear()
        p.write_text("".join(f"{vid},75,1\n" for vid in ids))
        log = corpus.load_annotations_csv(p)
        assert log.video_id == tuple(ids)
        assert len({id(vid) for vid in log.video_id}) == len(set(ids))
        assert [dtype[0] for dtype in calls] == [("id", "O")]


class TestLabelLoader:
    def test_basic(self, tmp_path):
        t = corpus.load_labels_csv(write(tmp_path, "l.csv", "v1,0.85\n"), "short")
        assert t.scores == {"v1": 0.85}

    def test_out_of_range(self, tmp_path):
        with pytest.raises(corpus.ParseError):
            corpus.load_labels_csv(write(tmp_path, "l.csv", "v1,1.2\n"), "short")

    def test_unknown_term_rejected(self):
        with pytest.raises(ValueError, match=r"^term must be one of \('short', 'long'\), got 'mid'$"):
            corpus.LabelTable("mid", {"v1": 0.5})


def test_corpus_video_ids_fall_back_to_feature_ids():
    fs = corpus.FeatureSet("video", "C3D", ["v2", "v1", "v2"], np.zeros((3, 1)))
    assert corpus.Corpus(features={"C3D": fs}).video_ids == ["v1", "v2"]
    labels = {"short": corpus.LabelTable("short", {"v3": 0.5})}
    assert corpus.Corpus(features={"C3D": fs}, labels=labels).video_ids == ["v3"]


class TestCaptionLoader:
    def test_quoted_commas(self, tmp_path):
        p = write(tmp_path, "c.csv", 'v1,"a man, running"\nv1,a dog\n')
        cs = corpus.load_captions_csv(p)
        assert cs.captions["v1"] == ("a man, running", "a dog")

    def test_too_many_captions(self, tmp_path):
        p = write(tmp_path, "c.csv", "".join(f"v1,cap {i}\n" for i in range(6)))
        with pytest.raises(corpus.ParseError) as exc:
            corpus.load_captions_csv(p)
        assert exc.value.line_no == 6

    @pytest.mark.parametrize("caption, message", [
        ("!!!", "caption '!!!' contains no tokens"), ("  ", "empty caption")])
    def test_caption_without_tokens_rejected_at_its_line(self, tmp_path, caption, message):
        p = write(tmp_path, "c.csv", f"v1,a dog\nv1,{caption}\n")
        with pytest.raises(corpus.ParseError) as exc:
            corpus.load_captions_csv(p)
        assert str(exc.value) == f"{p}:2: {message}"


@pytest.mark.parametrize("caps, message", [
    ((), "expected 1-5 captions, got 0"),
    (("a dog",) * 6, "expected 1-5 captions, got 6"),
    (("a dog", "!!!"), "caption '!!!' contains no tokens"),
    (("a dog", "  "), "empty caption"),
], ids=["none", "six", "no-tokens", "blank"])
def test_caption_set_rejects_invalid_captions(caps, message):
    """`CaptionSet` applies the tokenizer's rule, as the loader does."""
    with pytest.raises(ValueError) as exc:
        corpus.CaptionSet({"v1": caps})
    assert str(exc.value) == f"video 'v1': {message}"


class TestWordVectorLoader:
    def test_dimension_inferred(self, tmp_path):
        floats = " ".join(["0.1"] * 300)
        p = write(tmp_path, "wv.txt", f"the {floats}\nCat {floats}\n")
        t = corpus.load_word_vectors(p)
        assert t.dimension == 300
        assert t.get("THE") is not None
        assert t.get("cat") is not None  # lowercased at load

    def test_arity_error_carries_line(self, tmp_path):
        p = write(tmp_path, "wv.txt", "a 0.1 0.2\nb 0.3\n")
        with pytest.raises(corpus.ParseError) as exc:
            corpus.load_word_vectors(p)
        assert exc.value.line_no == 2

    def test_blank_file_rejected(self, tmp_path):
        p = write(tmp_path, "wv.txt", "\n \n")
        with pytest.raises(corpus.ParseError) as exc:
            corpus.load_word_vectors(p)
        assert str(exc.value) == f"{p}:0: empty word-vector file"

    def test_repeated_token_rejected_at_second_line(self, tmp_path):
        p = write(tmp_path, "wv.txt", "the 0.1 0.2\ncat 0.5 0.6\nThe 0.3 0.4\n")
        with pytest.raises(corpus.ParseError, match="duplicate token 'the'") as exc:
            corpus.load_word_vectors(p)
        assert exc.value.line_no == 3


LOADERS = {
    "feature": (lambda p: corpus.load_feature_csv(p, "video", "C3D"), "v1,0.1\n{vid},0.2\n"),
    "annotation": (corpus.load_annotations_csv, "v1,75,1\n{vid},80,0\n"),
    "caption": (corpus.load_captions_csv, "v1,a dog\n{vid},a cat\n"),
    "label": (lambda p: corpus.load_labels_csv(p, "short"), "v1,0.5\n{vid},0.7\n"),
    "prediction": (corpus.load_prediction_csv, "v1,0.5\n{vid},0.7\n"),
}


@pytest.mark.parametrize("vid", ["", "v 2"])
@pytest.mark.parametrize("kind", list(LOADERS))
def test_bad_video_id_reports_line(tmp_path, kind, vid):
    load, text = LOADERS[kind]
    p = write(tmp_path, "f.csv", text.format(vid=vid))
    with pytest.raises(corpus.ParseError) as exc:
        load(p)
    assert exc.value.line_no == 2
    assert str(exc.value) == f"{p}:2: invalid video id {vid!r}"


# every reader of CSV and word-vector files, `vidmem predict --ids` included
BOM_READERS = {
    **{kind: (load, text.format(vid="v2")) for kind, (load, text) in LOADERS.items()},
    "word-vector": (corpus.load_word_vectors, "v1 0.1\nv2 0.2\n"),
    "ids": (lambda p: [vid for _, vid, _ in corpus.read_records(p, "id", (1,), unique=True)],
            "v1\nv2\n"),
}


def _ids(table):
    """The ids, or tokens, that a reader loaded, in load order."""
    for column in ("video_id", "captions", "scores", "vectors"):
        table = getattr(table, column, table)
    return list(table)


@pytest.mark.parametrize("kind", list(BOM_READERS))
def test_byte_order_mark_dropped(tmp_path, kind):
    load, text = BOM_READERS[kind]
    clean = write(tmp_path, "clean.csv", text)
    marked = write(tmp_path, "marked.csv", "\ufeff" + text)
    assert _ids(load(marked)) == _ids(load(clean)) == ["v1", "v2"]


@pytest.mark.parametrize("kind", list(BOM_READERS))
def test_undecodable_byte_after_byte_order_mark_reported_at_its_line(tmp_path, kind):
    load, text = BOM_READERS[kind]
    p = tmp_path / "f.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode().replace(b"v2", b"v\xff2"))
    with pytest.raises(corpus.ParseError) as exc:
        load(p)
    assert str(exc.value) == f"{p}:2: not valid utf-8: byte 0xff (invalid start byte)"


@pytest.mark.parametrize("kind", ["label", "prediction"])
def test_repeated_video_id_rejected_at_second_line(tmp_path, kind):
    load, _ = LOADERS[kind]
    p = write(tmp_path, "f.csv", "v1,0.5\nv2,0.6\nv1,0.7\n")
    with pytest.raises(corpus.ParseError) as exc:
        load(p)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"{p}:3: duplicate video id 'v1'"


# The feature, annotation and prediction loaders parse with numpy's C reader
# and re-read through the record reader when in doubt; the two must never
# disagree.
FAST_PATH_LOADERS = {
    "feature": (lambda p: corpus.load_feature_csv(p, "video", "C3D"),
                "v1,0.5,1\nv2,1.5,-2\nv1,3,4\n"),
    "annotation": (corpus.load_annotations_csv, "v1,75,1\nv2,80.5,0\nv1,3,1\n"),
    "prediction2": (corpus.load_prediction_csv, "v1,0.5\nv2,1\nv3,-3\n"),
    "prediction3": (corpus.load_prediction_csv, "v1,0.5,direct\nv2,3,fallback\nv3,-2,direct\n"),
    "prediction4": (corpus.load_prediction_csv,
                    "v1,0.5,direct,0.75\nv2,0.5,fallback,-2\nv3,3,direct,1\n"),
}

# The label loader reads only through the record reader: on every edit it
# must give the same outcome with the fast path out of reach.
MATCHED_LOADERS = {**FAST_PATH_LOADERS,
                   "label": (lambda p: corpus.load_labels_csv(p, "short"),
                             "v1,0.5\nv2,1\nv3,0.25\n")}

EDITS = {
    "clean": lambda t: t,
    "quoted-id": lambda t: t.replace("v1", '"v1"'),
    "quoted-id-once": lambda t: t.replace("v1", '"v1"', 1),
    "quoted-value": lambda t: t.replace(",3,", ',"3",'),
    "bom": lambda t: "\ufeff" + t,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone-cr": lambda t: t.replace("\n", "\r"),
    "blank-lines": lambda t: "\n" + t.replace("\n", "\n\n"),
    "blank-line-after-first": lambda t: t.replace("\n", "\n\r\n", 1),
    "whitespace-line": lambda t: t.replace("\n", "\n  \n", 1),
    "whitespace-only-file": lambda t: " \n\t\n",
    "blank-only-file": lambda t: "\n\r\n\n",
    "empty-file": lambda t: "",
    "padded-id": lambda t: t.replace("v2", " v2 "),
    "padded-fields": lambda t: t.replace(",", " , "),
    "tab-padded-value": lambda t: t.replace(",3,", ",\t3\t,"),
    "nan": lambda t: t.replace(",3,", ",nan,"),
    "inf": lambda t: t.replace(",3,", ",inf,"),
    "overflow": lambda t: t.replace(",3,", ",1e400,"),
    "underscore": lambda t: t.replace(",3,", ",1_0,"),
    "arabic-digit": lambda t: t.replace(",3,", ",١,"),
    "hex": lambda t: t.replace(",3,", ",0x10,"),
    "zero": lambda t: t.replace(",3,", ",0,"),
    "negative": lambda t: t.replace(",3,", ",-3,"),
    "extra-field": lambda t: t.replace("\nv2,", "\nv2,1,"),
    "missing-field": lambda t: t.replace(",3,", ","),
    "trailing-comma": lambda t: t.replace("\n", ",\n", 1),
    "comment-line": lambda t: t + "# note\n",
    "hash-id": lambda t: t.replace("v2", "#v2"),
    "hash-value": lambda t: t.replace(",3,", ",3#,"),
    "last-field-space": lambda t: t.replace(",1\n", ", 1\n", 1),
    "last-field-trailing-space": lambda t: t.replace(",1\n", ",1 \n", 1),
    "last-field-float": lambda t: t.replace(",1\n", ",1.0\n", 1),
    "last-field-leading-zero": lambda t: t.replace(",1\n", ",01\n", 1),
    "last-field-two": lambda t: t.replace(",1\n", ",2\n", 1),
    "last-field-nul": lambda t: t.replace(",1\n", ",1\x00\n", 1),
    "long-id": lambda t: t.replace("v2", "v" * 70),
    "non-ascii-id": lambda t: t.replace("v2", "vidéo-ü"),
    "id-with-x1c": lambda t: t.replace("v2", "v\x1c2"),
    "id-with-u2028": lambda t: t.replace("v2", "v\u20282"),
    "id-ends-with-x1f": lambda t: t.replace("v2", "v2\x1f"),
    "id-with-nul": lambda t: t.replace("v2", "v2\x00"),
    "value-with-x1c": lambda t: t.replace(",3,", ",3\x1c,"),
    "value-with-u2028": lambda t: t.replace(",3,", ",3\u2028,"),
    "id-longer-than-first-and-last": lambda t: t.replace("v2", "v2222"),
    "mixed-width-ids": lambda t: t.replace("v1", "9").replace("v2", "10").replace("v3", "100"),
    "grouped": lambda t: "".join(sorted(t.splitlines(keepends=True))),
    "duplicate-id": lambda t: t.replace("v2", "v1"),
    "first-value-nan": lambda t: re.sub(r",[^,\n]*", ",nan", t, count=1),
    "first-value-1.5": lambda t: re.sub(r",[^,\n]*", ",1.5", t, count=1),
    "id-with-inner-nul": lambda t: t.replace("v2", "v\x002"),
}


def _outcome(load, path):
    """The loaded columns as comparable bytes, or the error type and text."""
    try:
        table = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(table, corpus.FeatureSet):
        return table.video_id, table.values.dtype, table.values.shape, table.values.tobytes()
    if isinstance(table, corpus.LabelTable):
        return table.term, list(table.scores), np.array(list(table.scores.values())).tobytes()
    if isinstance(table, dict):
        return list(table), np.array(list(table.values())).tobytes()
    return (table.video_id, table.delay_seconds.dtype, table.delay_seconds.tobytes(),
            table.recognized.dtype, table.recognized.tobytes())


def _assert_fast_path_matches_record_reader(load, path, monkeypatch):
    fast = _outcome(load, path)
    with monkeypatch.context() as m:
        m.setattr(corpus, "_parse_columns", lambda path, columns: None)
        assert _outcome(load, path) == fast


@pytest.mark.parametrize("edit", list(EDITS))
@pytest.mark.parametrize("kind", list(MATCHED_LOADERS))
def test_fast_path_matches_record_reader(tmp_path, monkeypatch, kind, edit):
    load, text = MATCHED_LOADERS[kind]
    p = tmp_path / "f.csv"
    p.write_text(EDITS[edit](text), encoding="utf-8", newline="")
    _assert_fast_path_matches_record_reader(load, p, monkeypatch)


@pytest.mark.parametrize("kind", list(MATCHED_LOADERS))
def test_fast_path_matches_record_reader_on_random_edits(tmp_path, monkeypatch, kind):
    load, text = MATCHED_LOADERS[kind]
    pieces = [",", "\n", "\r\n", "\r", " ", '"', "#", "\ufeff", "\x1c", "\u2028", "\x00",
              "v1", "1", "0", "1.0", "-1", "nan", "1e400", "1_0", "١", "x" * 70]
    rng = np.random.default_rng(0)
    for k in range(300):
        chars = list(text)
        for _ in range(rng.integers(1, 4)):
            i = int(rng.integers(0, len(chars) + 1))
            if rng.random() < 0.3 and i < len(chars):
                del chars[i]
            else:
                chars[i:i] = pieces[rng.integers(len(pieces))]
        p = tmp_path / f"f{k}.csv"  # a fresh file: reopening one to truncate it is slow
        p.write_text("".join(chars), encoding="utf-8", newline="")
        _assert_fast_path_matches_record_reader(load, p, monkeypatch)


@pytest.mark.parametrize("edit", ["clean", "crlf", "lone-cr", "bom", "blank-line-after-first",
                                  "long-id", "non-ascii-id", "tab-padded-value",
                                  "value-with-u2028", "grouped", "mixed-width-ids"])
@pytest.mark.parametrize("kind", list(FAST_PATH_LOADERS))
def test_fast_path_loads_without_record_reader(tmp_path, monkeypatch, kind, edit):
    load, text = FAST_PATH_LOADERS[kind]
    p = tmp_path / "f.csv"
    p.write_text(EDITS[edit](text), encoding="utf-8", newline="")
    expected = _outcome(load, p)

    def unused(*args, **kwargs):
        raise AssertionError("the record reader was used")

    monkeypatch.setattr(corpus, "read_records", unused)
    assert _outcome(load, p) == expected
    assert not isinstance(expected[0], type)


def _id_order(order, rng):
    """40 ids, each on 1-5 rows: one run per id, spread round-robin, in a
    random row order, or one row per id."""
    names = [f"v{k}" * int(rng.integers(1, 3)) for k in rng.permutation(40)]
    if order == "one-per-id":
        return names
    rows = [(j, vid) for vid in names for j in range(rng.integers(1, 6))]
    if order == "interleaved":
        rows.sort(key=lambda row: row[0])  # each id's j-th row after every id's (j-1)-th
    elif order == "shuffled":
        rows = [rows[k] for k in rng.permutation(len(rows))]
    return [vid for _, vid in rows]


# each fast-path loader, the text of one row, the id orders its files allow,
# and the loaded id column
ID_COLUMN_LOADERS = {
    "feature": (lambda p: corpus.load_feature_csv(p, "video", "C3D"), "{vid},{x},{y}\n",
                ("grouped", "interleaved", "shuffled", "one-per-id"), lambda t: t.video_id),
    "annotation": (corpus.load_annotations_csv, "{vid},{x},1\n",
                   ("grouped", "interleaved", "shuffled", "one-per-id"), lambda t: t.video_id),
    "prediction": (corpus.load_prediction_csv, "{vid},{y},direct,{x}\n", ("one-per-id",),
                   tuple),
}


@pytest.mark.parametrize("kind, order", [(kind, order) for kind, (_, _, orders, _)
                                         in ID_COLUMN_LOADERS.items() for order in orders])
def test_fast_path_id_column_matches_record_reader(tmp_path, monkeypatch, kind, order):
    """The fast path interns ids per run of equal ids: its id column equals
    the record reader's in order, and holds one string object per distinct
    id, on 20 seeded files of each id order."""
    load, line, _, column = ID_COLUMN_LOADERS[kind]
    rng = np.random.default_rng(sorted(ID_COLUMN_LOADERS).index(kind))
    for case in range(20):
        ids = _id_order(order, rng)
        p = tmp_path / f"{case}.csv"
        p.write_text("".join(line.format(vid=vid, x=rng.uniform(1, 9), y=rng.random())
                             for vid in ids))
        with monkeypatch.context() as m:
            m.setattr(corpus, "read_records", None)  # the fast path only
            fast = column(load(p))
        with monkeypatch.context() as m:
            m.setattr(corpus, "_parse_columns", lambda path, columns: None)
            assert fast == column(load(p))
        assert sorted(fast) == sorted(ids)
        assert len({id(vid) for vid in fast}) == len(set(ids))


QUOTED_IDS =('a"b', '"lead', 'trail"', '""', "v1")


@pytest.mark.parametrize("vid", QUOTED_IDS)
def test_video_id_may_hold_a_quote(vid):
    corpus._check_video_id(vid)


def _written_by(kind, ids):
    """A table of `kind` over `ids`, the rows `csv.writer` writes for it,
    its writer and loader, and its columns as lists."""
    rng = np.random.default_rng(len(ids))
    if kind == "feature":
        table = corpus.FeatureSet("video", "C3D", ids, rng.normal(size=(len(ids), 3)))
        rows = [[vid, *map(repr, row)] for vid, row in zip(table.video_id, table.values.tolist())]
        return (table, rows, corpus.write_feature_csv,
                lambda p: corpus.load_feature_csv(p, "video", "C3D"),
                lambda t: (t.video_id, t.values.tolist()))
    if kind == "label":
        table = corpus.LabelTable("short", dict(zip(ids, rng.random(len(ids)).tolist())))
        rows = [[vid, repr(score)] for vid, score in table.scores.items()]
        return (table, rows, corpus.write_labels_csv, lambda p: corpus.load_labels_csv(p, "short"),
                lambda t: t.scores)
    if kind == "prediction":
        scores = dict(zip(ids, rng.normal(0.5, 1.0, len(ids)).tolist()))
        table = PredictionTable("m", scores, dict.fromkeys(ids, "direct"))
        rows = [[vid, repr(clamp_unit(s)), "direct", repr(s)] for vid, s in scores.items()]
        return (table, rows, write_prediction_csv, corpus.load_prediction_csv,
                lambda t: getattr(t, "scores", t))
    table = corpus.AnnotationLog(ids, rng.uniform(1.0, 200.0, len(ids)),
                                 rng.integers(0, 2, len(ids)))
    rows = zip(table.video_id, map(repr, table.delay_seconds.tolist()), table.recognized.tolist())
    return (table, rows, corpus.write_annotations_csv, corpus.load_annotations_csv,
            lambda t: (t.video_id, t.delay_seconds.tolist(), t.recognized.tolist()))


@pytest.mark.parametrize("kind", ["feature", "label", "annotation", "prediction"])
def test_writer_bytes_equal_csv_writer_and_load_back(tmp_path, kind):
    """The streaming writers quote an id that holds `"` as `csv.writer`
    does, and the matching loader reads every id back.  Prediction files
    end each line with LF, the others with CRLF."""
    unique = kind in ("label", "prediction")
    ids = list(QUOTED_IDS) if unique else [*QUOTED_IDS, 'a"b', "v1", '"lead']
    table, rows, write_table, load, columns = _written_by(kind, ids)
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n" if kind == "prediction" else "\r\n").writerows(rows)
    write_table(table, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert columns(load(tmp_path / "out.csv")) == columns(table)


def test_quoted_ids_equal_csv_writer():
    """Every id is written as `csv.writer` writes it in a field, whether a
    batch holds no id that needs quoting or some do: each character up to
    U+2FFF alone and inside an id, and the empty id."""
    writer = csv.writer(corpus._Echo(), lineterminator="")
    chars = list(map(chr, range(0x3000)))
    for ids in ([f"v{k}" for k in range(50)], chars, [f"v{c}w" for c in chars], ["", "v1"]):
        assert corpus._quoted_ids(ids) == {vid: writer.writerow([vid]) for vid in ids}


@pytest.mark.parametrize("rows", [1, 3, 4])
def test_annotation_writer_bytes_independent_of_slice_size(tmp_path, monkeypatch, rows):
    """Writing the columns a few rows at a time gives the bytes of one pass."""
    table, expected, *_ = _written_by("annotation", [*QUOTED_IDS, 'a"b', "v1", '"lead'])
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(expected)
    monkeypatch.setattr(corpus, "_WRITE_ROWS", rows)
    corpus.write_annotations_csv(table, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
