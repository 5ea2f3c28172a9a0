"""Seeded fuzzing of every input file the CLI reads (Miller, Fredriksen &
So, "An Empirical Study of the Reliability of UNIX Utilities", CACM 1990).

Each case mutates one valid file of a small corpus with `random.Random(seed)`
and runs `cli.main` in-process on it: the exit code is 0 or 1, no exception
or warning escapes `main`, and where the mutated file no longer parses, the
error is the loader's own, with `path:line`.  The corpus is kept small (24
videos, a GRU of 2 hidden units and no hidden dense layer trained for one
epoch) so that every case runs in a few milliseconds, and `workers` never
exceeds 2.
"""

import json
import random
import re

import numpy as np
import pytest

from vidmem.cli import main
from vidmem.corpus import (ParseError, load_annotations_csv, load_captions_csv,
                           load_feature_csv, load_labels_csv, load_prediction_csv,
                           load_word_vectors)

CASES_PER_TARGET = 12

# tokens swapped into a line: non-finite, out-of-range and non-numeric
# values, quoting and control characters, a BOM and a 400-digit number
_TOKENS = ("nan", "inf", "-inf", "1e999", "1e-320", '"', "\x00", "\ufeff", "9" * 400, "",
           "-1", "2", "abc", " ")

# wrong-typed JSON values; no integer above 2, since `workers` may draw one
_VALUES = (None, True, False, "x", "", -1, 0, 2, 2.5, -0.5, [], {}, [1.5], [True], ["x"],
           {"a": 1})

_SETTINGS_KEYS = ("seeds", "bucket", "train_fraction", "aggregation", "workers")

_GRU = {"hidden_units": 2, "dense_widths": [1], "max_epochs": 1}  # a few ms per fit


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A synthetic corpus with word vectors, three trained models, two
    prediction files and an experiment config that reads them."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "spec.json").write_text(json.dumps({"n_videos": 24, "obs_per_video": 4,
                                             "feature_dim": 3, "seed": 0}))
    assert main(["synth", "--spec", str(d / "spec.json"), "--out", str(d)]) == 0
    words = sorted({w for line in (d / "captions.csv").read_text().splitlines()
                    for w in line.split(",", 1)[1].strip('"').split()})
    rng = np.random.default_rng(0)
    (d / "wv.txt").write_text("".join(
        w + " " + " ".join(repr(float(x)) for x in rng.normal(size=3)) + "\n" for w in words))
    labels, feat = str(d / "labels_short.csv"), str(d / "featA.csv")
    text = ["--captions", str(d / "captions.csv"), "--word-vectors", str(d / "wv.txt")]
    for model, params, inputs in (("ridge", "{}", ["--features", feat]),
                                  ("svr", '{"epsilon": 0.05}', ["--features", feat]),
                                  ("gru", json.dumps(_GRU), text)):
        assert main(["train", *inputs, "--labels", labels, "--model", model,
                     "--params", params, "--out", str(d / f"{model}.json")]) == 0
    for name in ("featA", "featB"):
        assert main(["predict", "--model", str(d / "ridge.json"),
                     "--features", str(d / f"{name}.csv"),
                     "--out", str(d / f"pred_{name}.csv")]) == 0
    config = {
        "data": {"features": [{"name": name, "path": str(d / f"{name}.csv"), "modality": mod}
                              for name, mod in (("featA", "video"), ("featB", "image"))],
                 "labels": {"short": labels, "long": str(d / "labels_long.csv")},
                 "captions": str(d / "captions.csv"), "word_vectors": str(d / "wv.txt")},
        "feature_models": [{"feature": "featA", "model": "ridge", "hyper": {"lam": 1.0}},
                           {"feature": "featB", "model": "lasso", "hyper": {"lam": 0.01}},
                           {"feature": "captions", "model": "gru",
                            "hyper": _GRU}],
        "ensemble_models": [{"feature": "featA", "model": "ridge"},
                            {"feature": "featB", "model": "ridge"}],
        "seeds": [0], "bucket": 0.25, "train_fraction": 0.75, "aggregation": "median",
        "workers": 1, "test_labels": {"short": labels},
        "output_dir": str(d / "experiment_out"),
    }
    (d / "config.json").write_text(json.dumps(config))
    assert main(["experiment", "--config", str(d / "config.json")]) == 0
    return d


def _argv(d, target, path, out):
    """The command that reads `path` in place of the corpus file `target`."""
    feat, labels = str(d / "featA.csv"), str(d / "labels_short.csv")
    text = {"captions": str(d / "captions.csv"), "word_vectors": str(d / "wv.txt")}
    if target in text:
        text[target] = path
        return ["predict", "--model", str(d / "gru.json"), "--captions", text["captions"],
                "--word-vectors", text["word_vectors"], "--out", out]
    return {
        "annotations": ["adjust-labels", "--annotations", path, "--out", out],
        "features-train": ["train", "--features", path, "--labels", labels, "--model", "ridge",
                           "--out", out],
        "features-predict": ["predict", "--model", str(d / "ridge.json"), "--features", path,
                             "--out", out],
        "labels": ["train", "--features", feat, "--labels", path, "--model", "ridge",
                   "--out", out],
        "truth": ["ensemble-search", "--pred", str(d / "pred_featA.csv"),
                  str(d / "pred_featB.csv"), "--truth", path, "--bucket", "0.25", "--out", out],
        "predictions-evaluate": ["evaluate", "--pred", path, "--truth", labels],
        "predictions-search": ["ensemble-search", "--pred", path, str(d / "pred_featB.csv"),
                               "--truth", labels, "--bucket", "0.25", "--out", out],
        "ridge-model": ["predict", "--model", path, "--features", feat, "--out", out],
        "svr-model": ["predict", "--model", path, "--features", feat, "--out", out],
        "gru-model": ["predict", "--model", path, "--captions", text["captions"],
                      "--word-vectors", text["word_vectors"], "--out", out],
        "config": ["experiment", "--config", path],
    }[target]


# target: (corpus file, loader of that file for line-based targets)
_LINE_TARGETS = {
    "annotations": ("annotations.csv", load_annotations_csv),
    "features-train": ("featA.csv", lambda p: load_feature_csv(p, "video", "featA")),
    "features-predict": ("featA.csv", lambda p: load_feature_csv(p, "video", "featA")),
    "labels": ("labels_short.csv", lambda p: load_labels_csv(p, "short")),
    "truth": ("labels_short.csv", lambda p: load_labels_csv(p, "short")),
    "captions": ("captions.csv", load_captions_csv),
    "word_vectors": ("wv.txt", load_word_vectors),
    "predictions-evaluate": ("pred_featA.csv", load_prediction_csv),
    "predictions-search": ("pred_featA.csv", load_prediction_csv),
}
_JSON_TARGETS = {"ridge-model": "ridge.json", "svr-model": "svr.json",
                 "gru-model": "gru.json", "config": "config.json"}


def _mutate_lines(text, rng, sep):
    """Drop, duplicate, truncate or blank one line, or swap one token."""
    lines = text.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    op = rng.choice(("drop", "duplicate", "truncate", "blank", "token", "token"))
    if op == "drop":
        del lines[k]
    elif op == "duplicate":
        lines.insert(k, lines[k])
    elif op == "truncate":
        lines[k] = lines[k][:rng.randrange(len(lines[k]))] + "\n"
    elif op == "blank":
        lines[k] = "\n"
    else:
        tokens = lines[k].rstrip("\r\n").split(sep)
        tokens[rng.randrange(len(tokens))] = rng.choice(_TOKENS)
        lines[k] = sep.join(tokens) + "\n"
    return "".join(lines), f"{op} line {k + 1}"


def _paths(doc, prefix=()):
    """The key path of every value inside the JSON document `doc`."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate_json(text, rng):
    """Delete one key or list item, give one value a wrong type, or cut the
    text short."""
    op = rng.choice(("delete", "retype", "retype", "truncate"))
    if op == "truncate":
        k = rng.randrange(len(text))
        return text[:k], f"truncate at {k}"
    doc = json.loads(text)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
        return json.dumps(doc), f"delete {path}"
    parent[path[-1]] = value = rng.choice(_VALUES)
    return json.dumps(doc), f"set {path} to {value!r}"


def _case_dir(tmp_path, case):
    """A fresh directory for one case's input and output files: opening an
    existing file to truncate it can cost tens of milliseconds."""
    d = tmp_path / f"case{case}"
    d.mkdir()
    return d


def _run(argv, what):
    try:
        return main(argv)
    except Exception as exc:  # what this test looks for
        pytest.fail(f"{what}: {type(exc).__name__} escaped main: {exc}")


@pytest.mark.parametrize("target", list(_LINE_TARGETS))
def test_mutated_line_file(corpus_dir, tmp_path, capsys, target):
    name, load = _LINE_TARGETS[target]
    text = (corpus_dir / name).read_text()
    for seed in range(CASES_PER_TARGET):
        case = _case_dir(tmp_path, seed)
        path = case / name
        mutated, what = _mutate_lines(text, random.Random(seed), " " if name == "wv.txt" else ",")
        path.write_text(mutated)
        capsys.readouterr()
        code = _run(_argv(corpus_dir, target, str(path), str(case / "out")),
                    f"seed {seed}: {what}")
        err = capsys.readouterr().err
        assert code in (0, 1), f"seed {seed}: {what}"
        if code == 0:
            continue
        try:
            load(path)
        except ParseError as exc:  # the file itself is malformed
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), f"seed {seed}: {what}"
            assert err == f"error: {exc}\n", f"seed {seed}: {what}"


def _mutate_id(data, rng):
    """Lengthen or shorten the id of one line, which may cut its video's run
    of lines in two or clash with another id, or put a 0xff byte, which
    does not decode, into the line."""
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    op = rng.choice(("lengthen", "shorten", "0xff"))
    vid, comma, rest = lines[k].partition(b",")
    if op == "lengthen":
        vid += vid[-1:] * rng.randrange(1, 40)
    elif op == "shorten":
        vid = vid[:rng.randrange(len(vid))]
    else:
        i = rng.randrange(len(lines[k]) - 1)  # before the line break
        vid, comma, rest = lines[k][:i] + b"\xff" + lines[k][i:], b"", b""
    lines[k] = vid + comma + rest
    return b"".join(lines), op, k + 1


@pytest.mark.parametrize("target", ["annotations", "labels", "truth", "predictions-evaluate",
                                    "predictions-search"])
def test_mutated_id_or_byte(corpus_dir, tmp_path, capsys, target):
    name, load = _LINE_TARGETS[target]
    data = (corpus_dir / name).read_bytes()
    for seed in range(CASES_PER_TARGET):
        case = _case_dir(tmp_path, seed)
        path = case / name
        mutated, op, line_no = _mutate_id(data, random.Random(seed))
        what = f"seed {seed}: {op} line {line_no}"
        path.write_bytes(mutated)
        capsys.readouterr()
        code = _run(_argv(corpus_dir, target, str(path), str(case / "out")), what)
        err = capsys.readouterr().err
        assert code in (0, 1), what
        if op == "0xff":  # the error names the line of the byte
            assert err.startswith(f"error: {path}:{line_no}: not valid utf-8: byte 0xff"), what
        elif code == 1:
            try:
                load(path)
            except ParseError as exc:
                assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), what
                assert err == f"error: {exc}\n", what


@pytest.mark.parametrize("target", list(_JSON_TARGETS))
def test_mutated_json_file(corpus_dir, tmp_path, target):
    text = (corpus_dir / _JSON_TARGETS[target]).read_text()
    for seed in range(CASES_PER_TARGET):
        case = _case_dir(tmp_path, seed)
        path = case / _JSON_TARGETS[target]
        mutated, what = _mutate_json(text, random.Random(seed))
        path.write_text(mutated)
        code = _run(_argv(corpus_dir, target, str(path), str(case / "out")),
                    f"seed {seed}: {what}")
        assert code in (0, 1), f"seed {seed}: {what}"


@pytest.mark.parametrize("key", _SETTINGS_KEYS)
def test_wrong_typed_setting(corpus_dir, tmp_path, key):
    config = json.loads((corpus_dir / "config.json").read_text())
    for k, value in enumerate(_VALUES):
        path = _case_dir(tmp_path, k) / "config.json"
        path.write_text(json.dumps({**config, key: value}))
        code = _run(["experiment", "--config", str(path)], f"{key} = {value!r}")
        assert code in (0, 1), f"{key} = {value!r}"
