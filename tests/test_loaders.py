"""Hostile inputs to the CLI's loaders: model bundles, dataset files and
predictions files. Whatever the bytes, a command ends in a documented exit
code with exactly one ``ERROR <CODE>:`` line, never in INTERNAL or a hang."""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abusivetext import cli
from abusivetext import encoder as enc

ERROR_RE = re.compile(r"ERROR ([A-Z_]+): ")
TEST_ROWS = "id\ttext\na\tgrawk video\nb\tmelith song\nc\tthe the the\n"


def run_cli(*args: str) -> tuple[int, list[str]]:
    """Exit code and the error codes of the ERROR lines on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = cli.main(list(args))
    return code, [m.group(1) for m in map(ERROR_RE.match, err.getvalue().splitlines()) if m]


def assert_outcome(code: int, errors: list[str], allowed: dict[str, int]) -> None:
    """Success with no ERROR line, or exactly one ERROR line whose code is
    allowed and matches the exit code."""
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1, errors
        assert errors[0] in allowed, errors
        assert code == allowed[errors[0]]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Training files, one bundle per arm, and an unlabeled input file."""
    root = tmp_path_factory.mktemp("loaders")
    assert cli.main(["synth", "--seed", "3", "--n-per-class", "12",
                     "--out", str(root / "train.tsv")]) == 0
    assert cli.main(["synth", "--seed", "4", "--n-per-class", "6", "--name", "dev",
                     "--out", str(root / "dev.tsv")]) == 0
    (root / "input.tsv").write_text(TEST_ROWS)
    (root / "lr.json").write_text(json.dumps({
        "train_path": str(root / "train.tsv"), "dev_path": str(root / "dev.tsv"),
        "model_path": str(root / "lr.bundle.json"), "model_kind": "tfidf_lr",
        "seed": 1, "tfidf": {"ngram_max": 2}, "lr": {"epochs": 3},
    }))
    (root / "enc.json").write_text(json.dumps({
        "train_path": str(root / "train.tsv"), "dev_path": str(root / "dev.tsv"),
        "model_path": str(root / "enc.bundle.json"), "model_kind": "micro_encoder",
        "seed": 1,
        "encoder": {"d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 4, "max_length": 8},
        "encoder_train": {"learning_rate": 1e-2, "epochs": 1, "batch_size": 8},
        "encoder_vocab_size": 40,
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(root / "lr.json")]) == 0
        assert cli.main(["train", "--config", str(root / "enc.json")]) == 0
    return root


def paths_of(node, prefix=()):
    """Every path into a JSON document; of a list only the first and last
    items, so long parameter arrays stay a few paths each."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, len(node) - 1}) if node else []
    else:
        return []
    out = []
    for key in keys:
        out.append(prefix + (key,))
        out.extend(paths_of(node[key], prefix + (key,)))
    return out


def with_value(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


HOSTILE = st.one_of(
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "name", "cls"]), st.integers(-3, 3), max_size=2),
    st.text(max_size=4),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-3, allow_infinity=False),
    st.sampled_from([10**12, 10**30, 10**400]),
)
BUNDLE_CODES = {"BUNDLE_VERSION": 4, "BUNDLE_INCONSISTENT": 5}


def guarded_shapes(config, vocab_size, shapes=enc.parameter_shapes):
    # Building the shape table for a hostile n_layers grows memory without
    # bound, so a loader that forgets to bound it fails here instead (as
    # ERROR INTERNAL).
    assert config.n_layers <= 64, "shape table built for a hostile n_layers"
    return shapes(config, vocab_size)


def predict_with(work: Path, doc) -> tuple[int, list[str]]:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        enc, "parameter_shapes", guarded_shapes
    ):
        model = Path(tmp) / "m.json"
        model.write_text(json.dumps(doc))
        return run_cli("predict", "--model", str(model), "--input",
                       str(work / "input.tsv"), "--out", str(Path(tmp) / "p.tsv"))


class TestHostileBundles:
    @pytest.mark.parametrize("arm", ["lr", "enc"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_value_replaced(self, work, arm, data):
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        path = data.draw(st.sampled_from(paths_of(doc)), label="path")
        code, errors = predict_with(work, with_value(doc, path, data.draw(HOSTILE)))
        assert_outcome(code, errors, BUNDLE_CODES)

    @pytest.mark.parametrize("arm, path, value", [
        ("enc", ("tokenizer",), None),
        ("enc", ("tokenizer",), []),
        ("enc", ("encoder_config", "n_layers"), 10**30),
        ("enc", ("encoder_config", "n_layers"), 1e30),
        ("lr", ("vectorizer",), "x"),
        ("lr", ("linear", "weights", 0), 10**400),
        ("lr", ("model_kind",), []),
        ("lr", ("model_kind",), {}),
    ])
    def test_rejected_as_inconsistent(self, work, arm, path, value):
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        assert predict_with(work, with_value(doc, path, value)) == (5, ["BUNDLE_INCONSISTENT"])

    def test_huge_ngram_max_predicts_like_the_bundle_as_trained(self, work, tmp_path):
        doc = json.loads((work / "lr.bundle.json").read_text())
        model = tmp_path / "m.json"
        model.write_text(json.dumps(with_value(doc, ("vectorizer", "config", "ngram_max"), 10**30)))
        for name, bundle in (("huge", model), ("trained", work / "lr.bundle.json")):
            assert run_cli("predict", "--model", str(bundle), "--input",
                           str(work / "input.tsv"), "--out", str(tmp_path / name)) == (0, [])
        assert (tmp_path / "huge").read_bytes() == (tmp_path / "trained").read_bytes()


# Pieces that steer arbitrary bytes toward the interesting corners of the
# table readers: separators, quotes, line ends, NUL, BOM, invalid UTF-8.
TABLE_PIECES = st.sampled_from([
    b"\t", b",", b'"', b"\r", b"\n", b"\r\n", b"\x00", b"\xef\xbb\xbf", b"\xff",
    b" ", b"id", b"text", b"label", b"probability", b"a", b"b",
    b"Abusive", b"Non-Abusive", b"0.5",
])
TABLE_BYTES = st.one_of(
    st.binary(max_size=80),
    st.lists(TABLE_PIECES, max_size=30).map(b"".join),
    st.tuples(
        st.sampled_from([b"id\ttext\tlabel\n", b"id,text,label\n", b"text\n",
                         b"id\tprobability\tlabel\n"]),
        st.lists(TABLE_PIECES, max_size=20).map(b"".join),
    ).map(b"".join),
)
TABLE_CODES = {"MALFORMED_ROW": 1, "ENCODING": 1}


class TestHostileTables:
    @pytest.mark.parametrize("format", ["tsv", "csv"])
    @settings(max_examples=150, deadline=None)
    @given(data=TABLE_BYTES)
    def test_arbitrary_dataset_bytes(self, format, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x"
            path.write_bytes(data)
            code, errors = run_cli("stats", "--input", str(path), "--format", format)
        assert_outcome(code, errors, TABLE_CODES)

    @settings(max_examples=150, deadline=None)
    @given(data=TABLE_BYTES)
    def test_arbitrary_predictions_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            gold, preds = Path(tmp) / "gold.tsv", Path(tmp) / "preds.tsv"
            gold.write_text("id\ttext\tlabel\na\tone\tAbusive\nb\ttwo\tNon-Abusive\n")
            preds.write_bytes(data)
            code, errors = run_cli("evaluate", "--gold", str(gold), "--pred", str(preds))
        assert_outcome(code, errors, {**TABLE_CODES, "ID_MISMATCH": 6})

    def test_csv_with_lone_carriage_returns_reads_its_rows(self, tmp_path, capsys):
        # The CSV reader takes a lone \r as a line end, header included.
        path = tmp_path / "x.csv"
        path.write_bytes(b"id,text,label\ra,b,Abusive\r")
        assert cli.main(["stats", "--input", str(path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "total:        1" in out and "abusive:      1" in out

    def test_csv_reader_error_is_malformed_row_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("id,text,label\na,ok,Abusive\nb," + "x" * 200_000 + ",Abusive\n")
        assert cli.main(["stats", "--input", str(path), "--format", "csv"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("ERROR MALFORMED_ROW: row 3: field larger than field limit")
