import numpy as np
import pytest

from vidmem import corpus


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


class TestLabelLoader:
    def test_basic(self, tmp_path):
        t = corpus.load_labels_csv(write(tmp_path, "l.csv", "v1,0.85\n"), "short")
        assert t.scores == {"v1": 0.85}

    def test_out_of_range(self, tmp_path):
        with pytest.raises(corpus.ParseError):
            corpus.load_labels_csv(write(tmp_path, "l.csv", "v1,1.2\n"), "short")


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


@pytest.mark.parametrize("kind", ["label", "prediction"])
def test_repeated_video_id_rejected_at_second_line(tmp_path, kind):
    load, _ = LOADERS[kind]
    p = write(tmp_path, "f.csv", "v1,0.5\nv2,0.6\nv1,0.7\n")
    with pytest.raises(corpus.ParseError) as exc:
        load(p)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"{p}:3: duplicate video id 'v1'"


# The feature and annotation loaders parse with numpy's C reader and re-read
# through the record reader when in doubt; the two must never disagree.
FAST_PATH_LOADERS = {
    "feature": (lambda p: corpus.load_feature_csv(p, "video", "C3D"),
                "v1,0.5,1\nv2,1.5,-2\nv1,3,4\n"),
    "annotation": (corpus.load_annotations_csv, "v1,75,1\nv2,80.5,0\nv1,3,1\n"),
}

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
}


def _outcome(load, path):
    """The loaded columns as comparable bytes, or the error type and text."""
    try:
        table = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(table, corpus.FeatureSet):
        return table.video_id, table.values.dtype, table.values.shape, table.values.tobytes()
    return (table.video_id, table.delay_seconds.dtype, table.delay_seconds.tobytes(),
            table.recognized.dtype, table.recognized.tobytes())


def _assert_fast_path_matches_record_reader(load, path, monkeypatch):
    fast = _outcome(load, path)
    with monkeypatch.context() as m:
        m.setattr(corpus, "_parse_columns", lambda path, columns: None)
        assert _outcome(load, path) == fast


@pytest.mark.parametrize("edit", list(EDITS))
@pytest.mark.parametrize("kind", list(FAST_PATH_LOADERS))
def test_fast_path_matches_record_reader(tmp_path, monkeypatch, kind, edit):
    load, text = FAST_PATH_LOADERS[kind]
    p = tmp_path / "f.csv"
    p.write_text(EDITS[edit](text), encoding="utf-8", newline="")
    _assert_fast_path_matches_record_reader(load, p, monkeypatch)


@pytest.mark.parametrize("kind", list(FAST_PATH_LOADERS))
def test_fast_path_matches_record_reader_on_random_edits(tmp_path, monkeypatch, kind):
    load, text = FAST_PATH_LOADERS[kind]
    pieces = [",", "\n", "\r\n", "\r", " ", '"', "#", "\ufeff", "\x1c", "\u2028", "\x00",
              "v1", "1", "0", "1.0", "-1", "nan", "1e400", "1_0", "١", "x" * 70]
    rng = np.random.default_rng(0)
    p = tmp_path / "f.csv"
    for _ in range(300):
        chars = list(text)
        for _ in range(rng.integers(1, 4)):
            i = int(rng.integers(0, len(chars) + 1))
            if rng.random() < 0.3 and i < len(chars):
                del chars[i]
            else:
                chars[i:i] = pieces[rng.integers(len(pieces))]
        p.write_text("".join(chars), encoding="utf-8", newline="")
        _assert_fast_path_matches_record_reader(load, p, monkeypatch)


@pytest.mark.parametrize("edit", ["clean", "crlf", "lone-cr", "bom", "blank-line-after-first",
                                  "long-id", "non-ascii-id", "tab-padded-value",
                                  "value-with-u2028"])
@pytest.mark.parametrize("kind", list(FAST_PATH_LOADERS))
def test_fast_path_loads_without_record_reader(tmp_path, monkeypatch, kind, edit):
    load, text = FAST_PATH_LOADERS[kind]
    p = tmp_path / "f.csv"
    p.write_text(EDITS[edit](text), encoding="utf-8", newline="")
    expected = _outcome(load, p)

    def unused(*args, **kwargs):
        raise AssertionError("the record reader was used")

    monkeypatch.setattr(corpus, "_read_records", unused)
    assert _outcome(load, p) == expected
    assert not isinstance(expected[0], type)
