"""Hostile inputs to the CLI's loaders: model bundles, run configs, dataset
files and predictions files. Whatever the bytes, a command ends in a documented exit
code with exactly one ``ERROR <CODE>:`` line, never in INTERNAL or a hang."""
import base64
import contextlib
import hashlib
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

from abusivetext import bundle as bd
from abusivetext import cli
from abusivetext import encoder as enc
from abusivetext import vectorizer
from abusivetext.errors import BundleInconsistentError

ERROR_RE = re.compile(r"ERROR ([A-Z_]+): ")
TEST_ROWS = "id\ttext\na\tgrawk video\nb\tmelith song\nc\tthe the the\n"
INNER_TEXTS = [
    "apple berry cherry", "apple berry date", "apple berry cherry fig", "fig grape",
    "fig grape apple", "kiwi lime", "kiwi lime mango berry", "kiwi lime nut",
]
SEP = vectorizer.NGRAM_SEPARATOR


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
    assert cli.main(["synth", "--seed", "4", "--n-per-class", "6",
                     "--out", str(root / "dev.tsv")]) == 0
    (root / "input.tsv").write_text(TEST_ROWS)
    (root / "lr.json").write_text(json.dumps({
        "train_path": str(root / "train.tsv"), "dev_path": str(root / "dev.tsv"),
        "model_path": str(root / "lr.bundle.json"), "model_kind": "tfidf_lr",
        "seed": 1, "tfidf": {"ngram_max": 2}, "lr": {"epochs": 3},
    }))
    (root / "lr0.json").write_text(json.dumps({
        "train_path": str(root / "train.tsv"), "model_path": str(root / "lr0.bundle.json"),
        "model_kind": "tfidf_lr", "seed": 1, "tfidf": {"max_vocab": 0}, "lr": {"epochs": 1},
    }))
    (root / "enc.json").write_text(json.dumps({
        "train_path": str(root / "train.tsv"), "dev_path": str(root / "dev.tsv"),
        "model_path": str(root / "enc.bundle.json"), "model_kind": "micro_encoder",
        "seed": 1,
        "encoder": {"d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 4, "max_length": 8},
        "encoder_train": {"learning_rate": 1e-2, "epochs": 1, "batch_size": 8},
        "encoder_vocab_size": 40,
    }))
    # The same encoder with room for merges: vocabulary 40 holds the bytes alone.
    merged = json.loads((root / "enc.json").read_text())
    merged.update(model_path=str(root / "encm.bundle.json"), encoder_vocab_size=64)
    (root / "encm.json").write_text(json.dumps(merged))
    # max_vocab 24 keeps trigrams and bigrams whose words "mango" and "nut"
    # are not kept as unigrams: the LR layout with every field in use.
    (root / "inner.tsv").write_text("id\ttext\tlabel\n" + "".join(
        f"r{i}\t{text}\t{('Abusive', 'Non-Abusive')[i % 2]}\n"
        for i, text in enumerate(INNER_TEXTS)
    ))
    (root / "lr3.json").write_text(json.dumps({
        "train_path": str(root / "inner.tsv"), "model_path": str(root / "lr3.bundle.json"),
        "model_kind": "tfidf_lr", "seed": 1, "tfidf": {"ngram_max": 3, "max_vocab": 24},
        "lr": {"epochs": 1},
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        for arm in ("lr", "enc", "lr0", "encm", "lr3"):
            assert cli.main(["train", "--config", str(root / f"{arm}.json")]) == 0
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
# Characters that the stored text forms use or come close to: separators,
# digits, hex, the merge dot, a sign and the n-gram separator.
EDIT_CHARS = st.sampled_from([" ", "\t", "0", "1", "a", "f", ".", "+", SEP])


def string_paths(node, prefix=()):
    """The path to every string value in a JSON document."""
    if isinstance(node, str):
        return [prefix]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [path for key, value in items for path in string_paths(value, prefix + (key,))]


def guarded_shapes(config, vocab_size, shapes=enc.parameter_shapes):
    # Building the shape table for a hostile n_layers grows memory without
    # bound, so a loader that forgets to bound it fails here instead (as
    # ERROR INTERNAL).
    assert config.n_layers <= 64, "shape table built for a hostile n_layers"
    return shapes(config, vocab_size)


def stored_dfs(text: str) -> list[int]:
    return [int(value) for value in text.split()]


def store(values, dtype="<i8") -> dict:
    array = np.asarray(values, dtype=dtype)
    return {"dtype": dtype, "shape": list(array.shape),
            "base64": base64.b64encode(array.tobytes()).decode()}


def decoded_tokens(vec) -> list[str]:
    """The vocabulary a version 8 vectorizer section stores: the unigrams
    and each n-gram spelled from its word positions, in ascending order."""
    table = ["", *vec["unigrams"].split(), *vec["inner_words"].split()]
    columns = [[table[int(p)] for p in text.split()] for text in vec["ngrams"]]
    return sorted(vec["unigrams"].split() + [SEP.join(filter(None, w)) for w in zip(*columns)])


def v7_vectorizer(vec) -> None:
    """Rewrite a vectorizer section in the version 7 layout: every token
    spelled out in one space-joined string."""
    tokens = " ".join(decoded_tokens(vec))
    for key in ("unigrams", "inner_words", "ngrams"):
        del vec[key]
    vec["tokens"] = tokens


def encoder_parameters(doc) -> tuple[dict, dict]:
    """The trained and the seeded parameter tensors, by name, of an encoder
    bundle in the current layout."""
    payload = bd.deserialize_bundle(json.dumps(doc).encode()).payload
    settings = payload.model.config
    return payload.model.params, enc.init_params(
        settings, payload.tokenizer.vocab_size, doc["run_config"]["seed"])


def packed(mask) -> str:
    return base64.b64encode(np.packbits(mask, bitorder="little").tobytes()).decode()


def as_v9(doc) -> None:
    """Rewrite a bundle in the version 9 layout: the encoder parameters as a
    list of per-tensor entries in name order, each with its name, its
    bitmap of the elements that differ from init and their values, and one
    sha256 of every tensor's bytes in name order; the LR sections were as
    they are now."""
    if "parameters" in doc:
        params, init = encoder_parameters(doc)
        tensors = []
        for name in sorted(params):
            trained = params[name].ravel()
            changed = trained.view("<u8") != init[name].ravel().view("<u8")
            tensors.append({"name": name, "changed": packed(changed),
                            "values": bd.encode_tensor(trained[changed])})
        digest = hashlib.sha256(b"".join(params[name].astype("<f8").tobytes()
                                         for name in sorted(params)))
        doc["parameters"] = {"tensors": tensors, "sha256": digest.hexdigest()}
    doc["format_version"] = 9


def as_v8(doc) -> None:
    """Rewrite a bundle in the version 8 layout: the version 9 bundle with
    every encoder parameter tensor stored in full, as a list of named
    ``<f8`` tensors."""
    params = encoder_parameters(doc)[0] if "parameters" in doc else {}
    as_v9(doc)
    if params:
        doc["parameters"] = [
            {"name": entry["name"], **bd.encode_tensor(params[entry["name"]])}
            for entry in doc["parameters"]["tensors"]
        ]
    doc["format_version"] = 8


def as_v7(doc) -> None:
    """Rewrite a bundle in the version 7 layout: the version 8 encoder
    parameters, and the LR tokens spelled out."""
    as_v8(doc)
    doc["format_version"] = 7
    if "vectorizer" in doc:
        v7_vectorizer(doc["vectorizer"])


def as_v2(doc, work: Path) -> None:
    """Rewrite an LR bundle's vectorizer section in the version 2 layout:
    tokens and document frequencies as lists, and the idf tensor."""
    vec = doc["vectorizer"]
    v7_vectorizer(vec)
    idf = bd.deserialize_bundle((work / "lr.bundle.json").read_bytes()).payload.tfidf.idf
    vec.update(tokens=vec["tokens"].split(),
               document_frequency=stored_dfs(vec["document_frequency"]),
               idf=store(idf, "<f8"))


def as_v3(doc) -> None:
    """Rewrite a bundle in the version 3 layout: the settings stored beside
    the payload sections as well as in provenance, the LR dimension, the
    tokenizer's special ids and the version 5 training report."""
    as_v5(doc)
    run_config = doc.pop("run_config")
    doc.update(format_version=3, model_kind=run_config["model_kind"],
               language_tag=run_config["language_tag"],
               preprocessing=run_config["preprocessing"])
    if "vectorizer" in doc:
        doc["vectorizer"]["config"] = run_config["tfidf"]
        doc["linear"]["dimension"] = len(doc["vectorizer"]["tokens"].split())
        doc["train_config"] = run_config["lr"]
    else:
        doc["tokenizer"]["specials"] = {"cls": 0, "pad": 1, "unk": 2}
        doc["encoder_config"] = run_config["encoder"]
        doc["train_config"] = run_config["encoder_train"]
    doc["provenance"]["run_config"] = run_config


def as_v6(doc) -> None:
    """Rewrite a bundle in the version 6 layout: the document frequencies as
    one ``<i8`` tensor, and the tokenizer as its list of hex pieces beside a
    list of hex merge pairs."""
    as_v7(doc)
    doc["format_version"] = 6
    if "vectorizer" in doc:
        vec = doc["vectorizer"]
        vec["document_frequency"] = store(stored_dfs(vec["document_frequency"]))
    else:
        tok = doc["tokenizer"]
        merges = [pair.split(".") for pair in tok["merges"].split()]
        pieces = enc.derive_pieces(
            [bytes([b]) for b in bytes.fromhex(tok["bytes"])],
            [(bytes.fromhex(a), bytes.fromhex(b)) for a, b in merges],
        )
        doc["tokenizer"] = {"pieces": [p.hex() for p in pieces], "merges": merges}


def as_v5(doc) -> None:
    """Rewrite a bundle in the version 5 layout: the version 6 payload, and
    the LR training report held the epoch losses as ``epoch_losses`` and a
    ``single_class`` flag, and no dev macro-F1; the encoder's report was as
    it is now."""
    as_v6(doc)
    doc["format_version"] = 5
    if "vectorizer" in doc:
        report = doc["training_report"]
        doc["training_report"] = {"epoch_losses": report["epoch_train_losses"],
                                  "single_class": False}


def as_v4(doc) -> None:
    """Rewrite a bundle in the version 4 layout: the version 5 training
    report, a seed in each arm's training config, whichever arm the bundle
    holds, and the LR shuffle switch."""
    as_v5(doc)
    run_config = doc["run_config"]
    doc["format_version"] = 4
    run_config["lr"].update(seed=run_config["seed"], shuffle=True)
    run_config["encoder_train"]["seed"] = run_config["seed"]


def _unigrams_edited(edit):
    def mutate(vec):
        unigrams = vec["unigrams"].split()
        edit(unigrams)
        vec["unigrams"] = " ".join(unigrams)
    return mutate


def _dfs_edited(edit):
    def mutate(vec):
        vec["document_frequency"] = edit(vec["document_frequency"], vec)
    return mutate


def _first_df(value):
    """The first document frequency replaced by the text value(vec)."""
    return _dfs_edited(lambda text, vec: " ".join([value(vec), *text.split(" ")[1:]]))


# One hostile vectorizer section each, edited in place; every one is a bundle
# no writer could have made. The token cases edit the unigrams.
HOSTILE_VOCABULARY = {
    "unsorted tokens": _unigrams_edited(list.reverse),
    "repeated token": _unigrams_edited(lambda t: t.__setitem__(1, t[0])),
    "empty token": lambda vec: vec.update(unigrams=vec["unigrams"].replace(" ", "  ", 1)),
    "tab between tokens": lambda vec: vec.update(unigrams=vec["unigrams"].replace(" ", "\t", 1)),
    "U+2028 between tokens":
        lambda vec: vec.update(unigrams=vec["unigrams"].replace(" ", "\u2028", 1)),
    "newline between tokens":
        lambda vec: vec.update(unigrams=vec["unigrams"].replace(" ", "\n", 1)),
    "leading space": lambda vec: vec.update(unigrams=" " + vec["unigrams"]),
    "trailing space": lambda vec: vec.update(unigrams=vec["unigrams"] + " "),
    "tokens joined without spaces":
        lambda vec: vec.update(unigrams=vec["unigrams"].replace(" ", "")),
    "no tokens": lambda vec: vec.update(unigrams=""),
    "one token too many": _unigrams_edited(lambda t: t.append(t[-1] + "z")),
    # Not a string: the version 6 tensor, other tensors, a list, a number.
    "df as <i8": _dfs_edited(lambda text, vec: store(stored_dfs(text))),
    "df as <f8": _dfs_edited(lambda text, vec: store(stored_dfs(text), "<f8")),
    "df as >i8": _dfs_edited(lambda text, vec: store(stored_dfs(text), ">i8")),
    "df as a list": _dfs_edited(lambda text, vec: stored_dfs(text)),
    "df as a number": _dfs_edited(lambda text, vec: stored_dfs(text)[0]),
    "df too short": _dfs_edited(lambda text, vec: text.rsplit(" ", 1)[0]),
    "df too long": _dfs_edited(lambda text, vec: text + " 1"),
    "df empty": _dfs_edited(lambda text, vec: ""),
    "df leading space": _dfs_edited(lambda text, vec: " " + text),
    "df trailing space": _dfs_edited(lambda text, vec: text + " "),
    "df double space": _dfs_edited(lambda text, vec: text.replace(" ", "  ", 1)),
    "df tab": _dfs_edited(lambda text, vec: text.replace(" ", "\t", 1)),
    "df newline": _dfs_edited(lambda text, vec: text.replace(" ", "\n", 1)),
    # Not canonical decimals, though int() reads the first five as values in range.
    "df 01": _first_df(lambda vec: "01"),
    "df +1": _first_df(lambda vec: "+1"),
    "df 1_0": _first_df(lambda vec: "1_0"),
    "df Arabic-Indic one": _first_df(lambda vec: "\u0661"),
    "df fullwidth one": _first_df(lambda vec: "\uff11"),
    "df 1.0": _first_df(lambda vec: "1.0"),
    "df 1e0": _first_df(lambda vec: "1e0"),
    "df 0": _first_df(lambda vec: "0"),
    "df negative": _first_df(lambda vec: "-1"),
    "df above n_documents": _first_df(lambda vec: str(vec["n_documents"] + 1)),
    "df past int64": _first_df(lambda vec: str(2**64 + 1)),
    "n_documents below the largest df": lambda vec: vec.update(
        n_documents=max(stored_dfs(vec["document_frequency"])) - 1),
    "n_documents 10**400": lambda vec: vec.update(n_documents=10**400),
}


def _columns_edited(edit):
    """The n-gram position strings, each as its list of entries, edited in
    place by edit(columns)."""
    def mutate(vec):
        columns = [text.split(" ") for text in vec["ngrams"]]
        edit(columns)
        vec["ngrams"] = [" ".join(column) for column in columns]
    return mutate


def _entry(k, j, value):
    """Entry j of position string k replaced by value."""
    return _columns_edited(lambda columns: columns[k].__setitem__(j, value))


def _renumbered(columns, start):
    """Every position from start on moved up by one."""
    columns[:] = [[str(int(p) + (int(p) >= start)) for p in column] for column in columns]


def _first_ngram_as_a_unigram(vec):
    """The first n-gram (apple, berry) stored as the literal unigram
    "apple␟berry" instead: the same tokens, in a layout no writer makes."""
    columns = [text.split(" ")[1:] for text in vec["ngrams"]]
    unigrams = vec["unigrams"].split()
    literal = SEP.join(unigrams[:2])
    _renumbered(columns, 2)
    vec["unigrams"] = " ".join([unigrams[0], literal, *unigrams[1:]])
    vec["ngrams"] = [" ".join(column) for column in columns]


def _unigram_also_an_inner_word(vec):
    """"lime" (position 8) also listed first among the inner words, and one
    n-gram using that copy: the same tokens, in a layout no writer makes."""
    columns = [text.split(" ") for text in vec["ngrams"]]
    _renumbered(columns, 9)
    columns[0][columns[0].index("8")] = "9"
    vec["inner_words"] = "lime " + vec["inner_words"]
    vec["ngrams"] = [" ".join(column) for column in columns]


def _word_after_the_end(columns):
    """A fourth position holding a word for an n-gram that ended at two."""
    j = columns[2].index("0")
    columns.append(["0"] * len(columns[0]))
    columns[3][j] = "1"


def _swap_first_two_ngrams(columns):
    for column in columns:
        column[:2] = column[1::-1]


# One hostile n-gram layout each, edited in place on the capped trigram
# bundle, whose vectorizer uses every field; every one is a bundle no writer
# could have made.
HOSTILE_NGRAMS = {
    # Not strings, or not single-space joined.
    "unigrams as a list": lambda vec: vec.update(unigrams=vec["unigrams"].split()),
    "inner words as a list": lambda vec: vec.update(inner_words=vec["inner_words"].split()),
    "inner words as a number": lambda vec: vec.update(inner_words=0),
    "ngrams as one string": lambda vec: vec.update(ngrams=" ".join(vec["ngrams"])),
    "ngrams as an object": lambda vec: vec.update(ngrams={"0": vec["ngrams"][0]}),
    "ngrams string as a list": lambda vec: vec["ngrams"].__setitem__(0, vec["ngrams"][0].split()),
    "ngrams string as a number": lambda vec: vec["ngrams"].__setitem__(0, 1),
    "inner words double space": lambda vec: vec.update(
        inner_words=vec["inner_words"].replace(" ", "  ")),
    "inner words tab": lambda vec: vec.update(inner_words=vec["inner_words"].replace(" ", "\t")),
    "inner words leading space": lambda vec: vec.update(inner_words=" " + vec["inner_words"]),
    "inner words trailing space": lambda vec: vec.update(inner_words=vec["inner_words"] + " "),
    "ngrams double space": lambda vec: vec["ngrams"].__setitem__(
        0, vec["ngrams"][0].replace(" ", "  ", 1)),
    "ngrams leading space": lambda vec: vec["ngrams"].__setitem__(1, " " + vec["ngrams"][1]),
    "ngrams trailing space": lambda vec: vec["ngrams"].__setitem__(2, vec["ngrams"][2] + " "),
    "ngrams tab": lambda vec: vec["ngrams"].__setitem__(0, vec["ngrams"][0].replace(" ", "\t", 1)),
    # Word lists out of order, holding the separator, or overlapping.
    "unsorted inner words": lambda vec: vec.update(
        inner_words=" ".join(reversed(vec["inner_words"].split()))),
    "repeated inner word": lambda vec: vec.update(
        inner_words=" ".join(vec["inner_words"].split()[:1] * 2)),
    "unigram holding U+241F": _first_ngram_as_a_unigram,
    "inner word holding U+241F": lambda vec: vec.update(
        inner_words=vec["inner_words"].replace("mango", f"mango{SEP}x")),
    "inner word that is also a unigram": _unigram_also_an_inner_word,
    "inner word no n-gram uses": lambda vec: vec.update(inner_words=vec["inner_words"] + " zz"),
    "no inner words": lambda vec: vec.update(inner_words=""),
    # Position strings of the wrong number or length.
    "one ngrams string": lambda vec: vec.update(ngrams=vec["ngrams"][:1]),
    "no ngrams strings": lambda vec: vec.update(ngrams=[]),
    "two empty ngrams strings": lambda vec: vec.update(ngrams=["", ""]),
    "strings of unequal length": _columns_edited(lambda columns: columns[2].pop()),
    "one n-gram too few": _columns_edited(lambda columns: [c.pop() for c in columns]),
    # Positions that spell no n-gram the writer writes.
    "position past the table": _entry(0, 0, "11"),
    "position past int64": _entry(0, 0, str(2**64)),
    "0 in the first string": _entry(0, 0, "0"),
    "0 in the second string": _entry(1, 0, "0"),
    "a word after an n-gram's end": _columns_edited(_word_after_the_end),
    "last string of only 0s": _columns_edited(
        lambda columns: columns.append(["0"] * len(columns[0]))),
    "n-grams not ascending": _columns_edited(_swap_first_two_ngrams),
    "repeated n-gram": _columns_edited(lambda columns: [c.__setitem__(1, c[0]) for c in columns]),
    # Not canonical decimals, though int() reads the first five as positions.
    "position 01": _entry(0, 0, "01"),
    "position +1": _entry(0, 0, "+1"),
    "position 1_0": _entry(1, 0, "1_0"),
    "position Arabic-Indic one": _entry(0, 0, "\u0661"),
    "position fullwidth one": _entry(0, 0, "\uff11"),
    "position 1.0": _entry(0, 0, "1.0"),
    "position 1e0": _entry(0, 0, "1e0"),
    "position 00": _entry(2, 0, "00"),
    "position -0": _entry(2, 0, "-0"),
    "position negative": _entry(0, 0, "-1"),
}


def _merges_edited(edit):
    def mutate(tok):
        merges = tok["merges"].split(" ")
        edit(merges)
        tok["merges"] = " ".join(merges)
    return mutate


def _bytes_edited(edit):
    def mutate(tok):
        pairs = [tok["bytes"][i : i + 2] for i in range(0, len(tok["bytes"]), 2)]
        edit(pairs)
        tok["bytes"] = "".join(pairs)
    return mutate


def _operand_of_a_later_merge_first(merges):
    """Move the first merge that reads a merged piece to the front."""
    i = next(i for i, pair in enumerate(merges) if len(pair) > 5)
    merges.insert(0, merges.pop(i))


def _swap_last_two(items):
    items[-2:] = items[:-3:-1]


# One hostile tokenizer section each, edited in place; every one is a bundle
# no writer could have made. The last three are version 6's three edits that
# loaded and predicted (swapped last pieces, a merged piece replaced by
# ffff, a dropped merge), in the stored form of this version.
HOSTILE_TOKENIZER = {
    "bytes as a list": lambda tok: tok.update(bytes=[tok["bytes"]]),
    "bytes as a number": lambda tok: tok.update(bytes=61),
    "unsorted bytes": _bytes_edited(list.reverse),
    "repeated byte": _bytes_edited(lambda pairs: pairs.insert(0, pairs[0])),
    "odd-length bytes": lambda tok: tok.update(bytes=tok["bytes"][:-1]),
    "uppercase bytes": lambda tok: tok.update(bytes=tok["bytes"].upper()),
    "spaced bytes": lambda tok: tok.update(bytes=tok["bytes"][:2] + " " + tok["bytes"][2:]),
    "byte ff added": lambda tok: tok.update(bytes=tok["bytes"] + "ff"),
    "no bytes": lambda tok: tok.update(bytes=""),
    "merges as version 6 pairs":
        lambda tok: tok.update(merges=[pair.split(".") for pair in tok["merges"].split()]),
    "merges as a number": lambda tok: tok.update(merges=0),
    "pair without .": _merges_edited(lambda m: m.__setitem__(0, m[0].replace(".", ""))),
    "pair with two .": _merges_edited(lambda m: m.__setitem__(0, m[0] + ".61")),
    "empty operand": _merges_edited(lambda m: m.__setitem__(0, m[0][m[0].index("."):])),
    "odd-length operand": _merges_edited(lambda m: m.__setitem__(0, m[0][1:])),
    "uppercase merges": lambda tok: tok.update(merges=tok["merges"].upper()),
    "merges double space": lambda tok: tok.update(merges=tok["merges"].replace(" ", "  ", 1)),
    "merges leading space": lambda tok: tok.update(merges=" " + tok["merges"]),
    "merges trailing space": lambda tok: tok.update(merges=tok["merges"] + " "),
    "merges tab": lambda tok: tok.update(merges=tok["merges"].replace(" ", "\t", 1)),
    "unknown operand": _merges_edited(lambda m: m.__setitem__(0, "ff" + m[0][m[0].index("."):])),
    "operand of a later merge": _merges_edited(_operand_of_a_later_merge_first),
    "last two pieces swapped": _bytes_edited(_swap_last_two),
    "a merged piece replaced by ffff": _merges_edited(lambda m: m.__setitem__(-1, "ff.ff")),
    "dropped merge": _merges_edited(list.pop),
}


def _bitmap_edited(edit):
    """Replace the changed bitmap's bytes with edit(bytes)."""
    def mutate(doc):
        section = doc["parameters"]
        section["changed"] = base64.b64encode(edit(base64.b64decode(section["changed"]))).decode()
    return mutate


def _values_edited(edit):
    """Replace the stored values with edit(a writable copy)."""
    def mutate(doc):
        section = doc["parameters"]
        values = np.frombuffer(base64.b64decode(section["values"]["base64"]), "<f8").copy()
        section["values"] = store(edit(values), "<f8")
    return mutate


def _first_set_bit_cleared(raw: bytes) -> bytes:
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
    bits[np.flatnonzero(bits)[0]] = 0
    return np.packbits(bits, bitorder="little").tobytes()


def _pad_bit_set(raw: bytes) -> bytes:
    # The fixture's 4 * vocab_size + 173 elements are odd in number, so the
    # last byte's top bit lies past the last element.
    assert not raw[-1] & 0x80
    return raw[:-1] + bytes([raw[-1] | 0x80])


def _key_bias_stores(value):
    """The last layer's key bias, which training never moves from its zero
    init, stores its first element: value."""
    def mutate(doc):
        params = encoder_parameters(doc)[0]
        names = list(params)
        at = sum(params[name].size for name in names[:names.index("layer0.attn.bk")])
        section = doc["parameters"]
        bits = np.unpackbits(np.frombuffer(base64.b64decode(section["changed"]), np.uint8),
                             bitorder="little")
        assert not bits[at : at + 4].any()
        bits[at] = 1
        section["changed"] = packed(bits)
        _values_edited(lambda v: np.insert(v, int(bits[:at].sum()), value))(doc)
    return mutate


def _every_element_stored(doc):
    """Every bit set and every trained element stored, as a writer that
    skipped the comparison with init would; the key bias still equals its
    init."""
    params = encoder_parameters(doc)[0]
    section = doc["parameters"]
    section["changed"] = packed(np.ones(sum(p.size for p in params.values()), bool))
    section["values"] = store(np.concatenate([p.ravel() for p in params.values()]), "<f8")


def _no_element_stored(doc):
    """No bit set and no value stored: the init alone, under the trained
    digest."""
    section = doc["parameters"]
    bits = np.unpackbits(np.frombuffer(base64.b64decode(section["changed"]), np.uint8),
                         bitorder="little")
    section["changed"] = packed(np.zeros(bits.size, bool))
    section["values"] = store(np.zeros(0), "<f8")


def _set(index, value):
    def edit(values):
        values[index] = value
        return values
    return edit


def _rewritten(doc, rewrite) -> dict:
    """The parameters section of a copy of doc that rewrite rewrote."""
    older = json.loads(json.dumps(doc))
    rewrite(older)
    return older["parameters"]


def _in_name_order(doc) -> dict:
    """The parameters section a writer laying the flat vector out in tensor
    name order would write: the version 9 entries end to end."""
    v9 = _rewritten(doc, as_v9)
    tensors = v9["tensors"]
    sizes = {name: array.size for name, array in encoder_parameters(doc)[0].items()}
    bits = [np.unpackbits(np.frombuffer(base64.b64decode(entry["changed"]), np.uint8),
                          bitorder="little")[: sizes[entry["name"]]] for entry in tensors]
    values = [np.frombuffer(base64.b64decode(entry["values"]["base64"]), "<f8")
              for entry in tensors]
    return {"changed": packed(np.concatenate(bits)),
            "values": store(np.concatenate(values), "<f8"), "sha256": v9["sha256"]}


# One hostile edit each to the enc fixture's parameters section, or to what
# load rebuilds the init from; every one is a bundle no writer could have made.
HOSTILE_PARAMETERS = {
    "bitmap one byte short": _bitmap_edited(lambda raw: raw[:-1]),
    "bitmap one byte long": _bitmap_edited(lambda raw: raw + b"\x00"),
    "pad bit set": _bitmap_edited(_pad_bit_set),
    "bitmap not base64": lambda doc: doc["parameters"].update(changed="!AAA"),
    "bitmap a list": lambda doc: doc["parameters"].update(changed=[]),
    "one value more than bits set": _values_edited(lambda v: np.append(v, 0.5)),
    "one value fewer than bits set": _values_edited(lambda v: v[:-1]),
    "a bit cleared, its value kept": _bitmap_edited(_first_set_bit_cleared),
    "stored value equal to its init": _key_bias_stores(0.0),
    "stored -0.0 where init is +0.0": _key_bias_stores(-0.0),
    "NaN value": _values_edited(_set(0, np.nan)),
    "infinite value": _values_edited(_set(-1, np.inf)),
    "value edited": _values_edited(_set(0, 0.125)),
    "digest of other bytes": lambda doc: doc["parameters"].update(
        sha256=doc["parameters"]["sha256"][:-1]
        + ("0" if doc["parameters"]["sha256"][-1] != "0" else "1")),
    "digest uppercase": lambda doc: doc["parameters"].update(
        sha256=doc["parameters"]["sha256"].upper()),
    "digest short": lambda doc: doc["parameters"].update(
        sha256=doc["parameters"]["sha256"][:-2]),
    "seed edited": lambda doc: doc["run_config"].update(seed=doc["run_config"]["seed"] + 1),
    "a layer added": lambda doc: doc["run_config"]["encoder"].update(
        n_layers=doc["run_config"]["encoder"]["n_layers"] + 1),
    # 8,000 bits, 16 per layer: a bound of 16 elements a layer let this
    # build a 500-layer shape table before the length check.
    "500 layers on a 1,000-byte bitmap": lambda doc: (
        doc["run_config"]["encoder"].update(n_layers=500),
        doc["parameters"].update(changed=packed(np.zeros(8000, bool)))),
    "every element stored": _every_element_stored,
    "no element stored": _no_element_stored,
    "values a list": lambda doc: doc["parameters"].update(values=[]),
    "digest not a string": lambda doc: doc["parameters"].update(sha256=0),
    "parameters null": lambda doc: doc.update(parameters=None),
    "stray key": lambda doc: doc["parameters"].update(names=[]),
    "laid out in name order": lambda doc: doc.update(parameters=_in_name_order(doc)),
    "digest in name order": lambda doc: doc["parameters"].update(
        sha256=_rewritten(doc, as_v9)["sha256"]),
    "version 9 tensors": lambda doc: doc.update(
        parameters={"tensors": _rewritten(doc, as_v9)["tensors"]}),
    "version 8 list": lambda doc: doc.update(parameters=_rewritten(doc, as_v8)),
}


def _drop(key):
    return lambda section: section.pop(key)


# One hostile recorded run config each; every one is a bundle no writer could
# have made.
HOSTILE_RECORDED_CONFIG = {
    "not an object": lambda doc: doc.update(run_config=["tfidf_lr"]),
    "missing nested key": lambda doc: doc["run_config"]["lr"].pop("epochs"),
    "missing top-level key": lambda doc: doc["run_config"].pop("encoder_vocab_size"),
    "extra key": lambda doc: doc["run_config"].update(note=1),
    "extra nested key": lambda doc: doc["run_config"]["encoder"].update(note=1),
    "path key": lambda doc: doc["run_config"].update(train_path="train.tsv"),
    "unknown model_kind": lambda doc: doc["run_config"].update(model_kind="perceptron"),
    "the other arm's model_kind": lambda doc: doc["run_config"].update(
        model_kind="micro_encoder" if "vectorizer" in doc else "tfidf_lr"),
    "encoder_vocab_size 3": lambda doc: doc["run_config"].update(encoder_vocab_size=3),
    "lr.epochs 0": lambda doc: doc["run_config"]["lr"].update(epochs=0),
    "format xlsx": lambda doc: doc["run_config"].update(format="xlsx"),
    # What version 4 stored: a run now has one seed, an int at the top level.
    "lr.seed": lambda doc: doc["run_config"]["lr"].update(seed=1),
    "lr.shuffle": lambda doc: doc["run_config"]["lr"].update(shuffle=True),
    "encoder_train.seed": lambda doc: doc["run_config"]["encoder_train"].update(seed=1),
    "seed null": lambda doc: doc["run_config"].update(seed=None),
    "seed -1": lambda doc: doc["run_config"].update(seed=-1),
}


def predict_raw(work: Path, data: bytes) -> tuple[int, list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.json"
        model.write_bytes(data)
        return run_cli("predict", "--model", str(model), "--input",
                       str(work / "input.tsv"), "--out", str(Path(tmp) / "p.tsv"))


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

    @pytest.mark.parametrize("arm", ["lr", "lr3", "enc"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_character_edit_loads_as_itself_or_is_inconsistent(self, work, arm, data):
        # Load accepts exactly what save writes: an edited document either
        # fails to load, or loads a bundle that save writes back as it.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        path = data.draw(st.sampled_from(string_paths(doc)), label="path")
        text = doc
        for key in path:
            text = text[key]
        op = data.draw(st.sampled_from(["insert", "delete", "replace"] if text else ["insert"]),
                       label="op")
        at = data.draw(st.integers(0, len(text) - (op != "insert")), label="at")
        char = "" if op == "delete" else data.draw(EDIT_CHARS, label="char")
        doc = with_value(doc, path, text[:at] + char + text[at + (op != "insert"):])
        try:
            loaded = bd.deserialize_bundle(json.dumps(doc).encode())
        except BundleInconsistentError:
            return
        assert json.loads(bd.serialize_bundle(loaded)) == doc

    @pytest.mark.parametrize("arm", ["lr3", "encm"])
    def test_same_document_in_other_bytes_predicts_the_same(self, work, tmp_path, arm):
        # Load compares documents, not bytes: keys sorted and no indent.
        written, redumped = work / f"{arm}.bundle.json", tmp_path / "m.json"
        redumped.write_text(json.dumps(json.loads(written.read_text()), sort_keys=True))
        assert redumped.read_bytes() != written.read_bytes()
        for name, model in (("redumped", redumped), ("written", written)):
            assert run_cli("predict", "--model", str(model), "--input",
                           str(work / "input.tsv"), "--out", str(tmp_path / name)) == (0, [])
        assert (tmp_path / "redumped").read_bytes() == (tmp_path / "written").read_bytes()

    @pytest.mark.parametrize("arm, path, value", [
        ("enc", ("tokenizer",), None),
        ("enc", ("tokenizer",), []),
        ("enc", ("run_config", "encoder", "n_layers"), 10**30),
        ("enc", ("run_config", "encoder", "n_layers"), 1e30),
        ("lr", ("vectorizer",), "x"),
        ("lr", ("linear", "weights", "shape", 0), 10**400),
        ("lr", ("run_config", "model_kind"), []),
        ("lr", ("run_config", "model_kind"), {}),
        ("enc", ("run_config", "encoder", "d_model"), 4.0),
        ("enc", ("run_config", "encoder", "max_length"), 8.0),
        ("enc", ("run_config", "encoder", "n_layers"), True),
        ("lr", ("run_config", "tfidf", "ngram_max"), 2.5),
        ("lr", ("linear", "bias"), "0.25"),
        ("lr", ("linear", "bias"), False),
        ("lr", ("linear", "bias"), 10**400),
        ("lr", ("run_config", "language_tag"), []),
        ("lr", ("vectorizer", "n_documents"), 40.5),
        ("lr0", ("vectorizer", "n_documents"), -5),
        ("lr0", ("vectorizer", "n_documents"), 0),
        ("lr", ("vectorizer", "unigrams"), 12345),
        ("lr", ("vectorizer", "unigrams"), 0.5),
        ("lr", ("vectorizer", "unigrams"), {"a": 1}),
        ("lr", ("vectorizer", "unigrams"), lambda text: text.split()),
        ("lr", ("vectorizer", "document_frequency"), lambda text: stored_dfs(text)),
        ("lr", ("provenance",), None),
        ("enc", ("provenance",), []),
        ("lr", ("training_report", "epoch_train_losses"), "x"),
        ("lr", ("training_report", "epoch_dev_macro_f1", 0), "0.5"),
        ("enc", ("training_report", "epoch_train_losses"), "x"),
        ("enc", ("training_report", "epoch_dev_macro_f1"), ["0.5"]),
        ("lr", ("training_report", "epoch_dev_macro_f1", -1), None),
        ("lr", ("training_report", "epoch_dev_macro_f1"), [0.5]),
        ("lr", ("vectorizer", "inner_words"), None),
        ("lr", ("vectorizer", "inner_words"), []),
        ("lr", ("vectorizer", "ngrams"), None),
        ("lr", ("vectorizer", "ngrams"), "1 2"),
        ("lr", ("vectorizer", "ngrams", 0), 1),
        ("lr", ("vectorizer", "ngrams", -1), None),
        # The fixture's longest n-grams have three words.
        ("lr3", ("run_config", "tfidf", "ngram_max"), 1),
        ("lr3", ("run_config", "tfidf", "ngram_max"), 2),
    ])
    def test_rejected_as_inconsistent(self, work, arm, path, value):
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        if callable(value):  # a value made from the one it replaces
            node = doc
            for key in path:
                node = node[key]
            value = value(node)
        assert predict_with(work, with_value(doc, path, value)) == (5, ["BUNDLE_INCONSISTENT"])

    def test_zero_token_bundle_predicts(self, work):
        doc = json.loads((work / "lr0.bundle.json").read_text())
        vec = doc["vectorizer"]
        assert vec["unigrams"] == vec["inner_words"] == vec["document_frequency"] == ""
        assert vec["ngrams"] == []
        assert predict_with(work, doc) == (0, [])

    @pytest.mark.parametrize("arm, section, key, value", [
        ("lr", ("vectorizer",), "idf", "idf tensor"),
        ("lr", ("linear",), "note", 1),
        ("lr", (), "note", 1),
        ("lr", ("run_config", "tfidf"), "lowercase", True),
        ("lr", ("run_config", "preprocessing"), "note", None),
        ("enc", (), "vocab_size", 40),
        ("enc", ("tokenizer",), "vocab_size", 40),
        ("enc", ("tokenizer",), "specials", {"cls": 0, "pad": 1, "unk": 2}),
        ("enc", ("run_config", "encoder"), "note", 0.1),
        ("enc", ("provenance",), "host", "x"),
        ("enc", ("training_report",), "note", []),
        # What version 5 stored in the LR report.
        ("lr", ("training_report",), "epoch_losses", [0.5, 0.4, 0.3]),
        ("lr", ("training_report",), "single_class", False),
    ])
    def test_stray_key_rejected_as_inconsistent(self, work, arm, section, key, value):
        # A key load would not read, which a re-save would drop.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        if value == "idf tensor":  # the version 2 layout kept it here
            loaded = bd.deserialize_bundle((work / "lr.bundle.json").read_bytes())
            value = store(loaded.payload.tfidf.idf, "<f8")
        node = doc
        for name in section:
            node = node[name]
        node[key] = value
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm, section, key", [
        ("lr", ("run_config", "preprocessing"), "strip_digits"),
        ("lr", ("run_config", "tfidf"), "l2_normalize"),
        ("lr", ("run_config",), "seed"),
        ("lr", (), "training_report"),
        ("enc", ("tokenizer",), "merges"),
        ("enc", ("run_config", "encoder"), "max_length"),
        ("enc", (), "parameters"),
        ("enc", ("parameters",), "sha256"),
        ("enc", ("parameters",), "changed"),
        ("enc", ("parameters",), "values"),
    ])
    def test_missing_key_rejected_as_inconsistent(self, work, arm, section, key):
        # Defaults are not filled in: the writer writes every key.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        node = doc
        for name in section:
            node = node[name]
        del node[key]
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("name", sorted(HOSTILE_VOCABULARY))
    def test_hostile_vocabulary_rejected_as_inconsistent(self, work, name):
        doc = json.loads((work / "lr.bundle.json").read_text())
        vec = doc["vectorizer"]
        assert len(vec["unigrams"].split()) > 2
        HOSTILE_VOCABULARY[name](vec)
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    def test_ngram_fixture_uses_every_field_and_predicts(self, work):
        doc = json.loads((work / "lr3.bundle.json").read_text())
        vec = doc["vectorizer"]
        assert vec["inner_words"] == "mango nut" and len(vec["unigrams"].split()) == 8
        assert len(vec["ngrams"]) == 3 and "0" in vec["ngrams"][2].split(" ")
        assert predict_with(work, doc) == (0, [])

    @pytest.mark.parametrize("name", sorted(HOSTILE_NGRAMS))
    def test_hostile_ngrams_rejected_as_inconsistent(self, work, name):
        doc = json.loads((work / "lr3.bundle.json").read_text())
        vec = doc["vectorizer"]
        original = json.loads(json.dumps(vec))
        HOSTILE_NGRAMS[name](vec)
        assert vec != original
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("edit", [_first_ngram_as_a_unigram, _unigram_also_an_inner_word])
    def test_layouts_no_writer_makes_spell_the_same_tokens(self, work, edit):
        # So only the rule each breaks tells them from the written layout.
        vec = json.loads((work / "lr3.bundle.json").read_text())["vectorizer"]
        tokens = decoded_tokens(vec)
        edit(vec)
        assert decoded_tokens(vec) == tokens

    @pytest.mark.parametrize("name", sorted(HOSTILE_TOKENIZER))
    def test_hostile_tokenizer_rejected_as_inconsistent(self, work, name):
        doc = json.loads((work / "encm.bundle.json").read_text())
        tok = doc["tokenizer"]
        assert len(tok["merges"].split()) > 2 and any(c in "abcdef" for c in tok["bytes"])
        original = dict(tok)
        HOSTILE_TOKENIZER[name](tok)
        assert tok != original
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    def test_tokenizer_fixture_predicts(self, work):
        doc = json.loads((work / "encm.bundle.json").read_text())
        assert predict_with(work, doc) == (0, [])

    @pytest.mark.parametrize("name", sorted(HOSTILE_PARAMETERS))
    def test_hostile_parameters_rejected_as_inconsistent(self, work, name):
        doc = json.loads((work / "enc.bundle.json").read_text())
        original = json.loads(json.dumps(doc))
        HOSTILE_PARAMETERS[name](doc)
        assert doc != original
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    @pytest.mark.parametrize("key", ["provenance", "run_config"])
    def test_missing_provenance_is_inconsistent(self, work, arm, key):
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        del doc[key]
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("version", [
        float(bd.FORMAT_VERSION), str(bd.FORMAT_VERSION), True, [bd.FORMAT_VERSION],
    ])
    def test_version_that_is_not_the_int_is_a_version_error(self, work, version):
        doc = json.loads((work / "enc.bundle.json").read_text())
        assert predict_with(work, with_value(doc, ("format_version",), version)) == (
            4, ["BUNDLE_VERSION"]
        )

    @pytest.mark.parametrize("arm, tensor", [
        ("lr", ("linear", "weights")),
        ("enc", ("parameters", "values")),
    ])
    @pytest.mark.parametrize("hostile", [
        "bad base64", "unpadded base64", "byte length", "big-endian dtype",
        "bool in shape", "float in shape", "NaN bytes", "extra key",
    ])
    def test_hostile_tensor_rejected_as_inconsistent(self, work, arm, tensor, hostile):
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        stored = doc
        for key in tensor:
            stored = stored[key]
        raw = base64.b64decode(stored["base64"])
        assert raw, "each case edits a tensor holding values"
        if hostile == "bad base64":
            stored["base64"] = "!" + stored["base64"][1:]
        elif hostile == "unpadded base64":
            stored["base64"] = stored["base64"][:-1]
        elif hostile == "byte length":
            stored["base64"] = base64.b64encode(raw[8:]).decode()
        elif hostile == "big-endian dtype":
            stored["dtype"] = ">" + stored["dtype"][1:]
        elif hostile == "bool in shape":
            stored["shape"] = [True] * len(stored["shape"]) or [True]
        elif hostile == "float in shape":
            stored["shape"] = [float(n) for n in stored["shape"]] or [1.0]
        elif hostile == "NaN bytes":
            stored["base64"] = base64.b64encode(np.full(len(raw) // 8, np.nan).tobytes()).decode()
        else:
            stored["note"] = 1
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    def test_v1_document_is_a_version_error(self, work, arm):
        # Version 1 wrote decimal lists and had no provenance.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v8(doc)
        doc["format_version"] = 1
        del doc["provenance"]

        def values(tensor):
            return np.frombuffer(base64.b64decode(tensor["base64"]), "<f8").tolist()

        if arm == "lr":
            as_v2(doc, work)
            for section, key in (("vectorizer", "idf"), ("linear", "weights")):
                doc[section][key] = values(doc[section][key])
        else:
            doc["parameters"] = [
                {"name": e["name"], "shape": e["shape"], "values": values(e)}
                for e in doc["parameters"]
            ]
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    def test_v2_document_is_a_version_error(self, work, arm):
        # Version 2 stored the LR tokens and frequencies as lists, and idf.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        doc["format_version"] = 2
        if arm == "lr":
            as_v2(doc, work)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    def test_v3_document_is_a_version_error(self, work, arm):
        # Version 3 stored the settings beside the payload and the run config
        # in provenance; labelled version 4, that layout is inconsistent.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v3(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    def test_v4_document_is_a_version_error(self, work, arm):
        # Version 4 stored a seed in each arm's training config; labelled
        # the current version, that layout is inconsistent.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v4(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    def test_v5_document_is_a_version_error(self, work, arm):
        # Version 5 stored the LR report as epoch_losses and single_class,
        # and the version 6 payload; labelled the current version, that
        # layout is inconsistent.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v5(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm", ["lr3", "encm"])
    def test_v7_document_is_a_version_error(self, work, arm):
        # Version 7 spelled every LR token out in one string, and stored the
        # encoder parameters in full; labelled the current version, either
        # layout is inconsistent.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v7(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm, relabelled", [("lr3", 0), ("encm", 5)])
    def test_v8_document_is_a_version_error(self, work, arm, relabelled):
        # Version 8 stored every encoder parameter in full; labelled the
        # current version, that layout is inconsistent. An LR bundle differs
        # from its version 8 twin in format_version alone.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v8(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        expected = (5, ["BUNDLE_INCONSISTENT"]) if relabelled else (0, [])
        assert predict_with(work, doc) == expected

    @pytest.mark.parametrize("arm, relabelled", [("lr3", 0), ("encm", 5)])
    def test_v9_document_is_a_version_error(self, work, arm, relabelled):
        # Version 9 stored the encoder parameters as one entry per tensor;
        # labelled the current version, that layout is inconsistent. An LR
        # bundle differs from its version 9 twin in format_version alone.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v9(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        expected = (5, ["BUNDLE_INCONSISTENT"]) if relabelled else (0, [])
        assert predict_with(work, doc) == expected

    @pytest.mark.parametrize("arm", ["lr", "encm"])
    def test_v6_document_is_a_version_error(self, work, arm):
        # Version 6 stored the frequencies as an <i8 tensor and the
        # tokenizer's pieces beside its merges; labelled the current
        # version, that layout is inconsistent.
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        as_v6(doc)
        assert predict_with(work, doc) == (4, ["BUNDLE_VERSION"])
        doc["format_version"] = bd.FORMAT_VERSION
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("arm", ["lr", "enc"])
    @pytest.mark.parametrize("name", sorted(HOSTILE_RECORDED_CONFIG))
    def test_hostile_recorded_run_config_is_inconsistent(self, work, arm, name):
        doc = json.loads((work / f"{arm}.bundle.json").read_text())
        HOSTILE_RECORDED_CONFIG[name](doc)
        assert predict_with(work, doc) == (5, ["BUNDLE_INCONSISTENT"])

    @pytest.mark.parametrize("data", [
        b"[" * 200_000 + b"]" * 200_000,
        b'{"format_version": 10, "run_config": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_001,
        b'{"format_version": ' + b"9" * 5000 + b"}",
        b'{"format_version": 10, "run_config": {"seed": ' + b"1" * 5000 + b"}}",
    ], ids=["deep list", "deep object", "long version", "long seed"])
    def test_deep_or_huge_json_is_inconsistent(self, work, data):
        assert predict_raw(work, data) == (5, ["BUNDLE_INCONSISTENT"])

    def test_huge_ngram_max_predicts_like_the_bundle_as_trained(self, work, tmp_path):
        doc = json.loads((work / "lr.bundle.json").read_text())
        model = tmp_path / "m.json"
        model.write_text(json.dumps(with_value(doc, ("run_config", "tfidf", "ngram_max"), 10**30)))
        for name, bundle in (("huge", model), ("trained", work / "lr.bundle.json")):
            assert run_cli("predict", "--model", str(bundle), "--input",
                           str(work / "input.tsv"), "--out", str(tmp_path / name)) == (0, [])
        assert (tmp_path / "huge").read_bytes() == (tmp_path / "trained").read_bytes()


# Wrong types and out-of-range numbers for run-config values. Never a large
# valid size: a valid size only makes training slower.
CONFIG_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "seed"]), st.integers(-3, 3), max_size=2),
    st.text(max_size=4),
    st.integers(-3, 0),
    st.floats(max_value=-1e-3),
    st.sampled_from([0.5, 2.5, 4.0, float("nan"), float("inf")]),
)
CONFIG_CODES = {"CONFIG": 1, "DATA": 1, "MALFORMED_ROW": 1}
# A string for a path names a file in the working directory; these keys are
# covered by the exit-code tests instead.
PATH_KEYS = ("train_path", "dev_path", "model_path")


def train_with(work: Path, arm: str, path, value) -> tuple[int, list[str]]:
    """Train from the arm's run config, fully spelled out, with one value
    replaced, writing the bundle to a temporary directory."""
    raw = json.loads((work / f"{arm}.json").read_text())
    doc = with_value(cli.RunConfig.from_dict(raw).to_dict(), path, value)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        enc, "parameter_shapes", guarded_shapes
    ):
        doc["model_path"] = str(Path(tmp) / "m.json")
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps(doc))
        return run_cli("train", "--config", str(config))


class TestHostileRunConfigs:
    @pytest.mark.parametrize("arm", ["lr", "enc"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_value_replaced(self, work, arm, data):
        full = cli.RunConfig.from_dict(json.loads((work / f"{arm}.json").read_text()))
        paths = [p for p in paths_of(full.to_dict()) if p[0] not in PATH_KEYS]
        path = data.draw(st.sampled_from(paths), label="path")
        code, errors = train_with(work, arm, path, data.draw(CONFIG_HOSTILE))
        assert_outcome(code, errors, CONFIG_CODES)

    @pytest.mark.parametrize("arm, path, value", [
        ("enc", ("encoder", "d_model"), 4.0),
        ("enc", ("encoder", "max_length"), 8.0),
        ("lr", ("tfidf", "ngram_max"), 2.5),
        ("lr", ("lr", "epochs"), True),
        ("enc", ("encoder_train", "batch_size"), "8"),
        ("enc", ("encoder_vocab_size",), 40.0),
        ("lr", ("seed",), 1.0),
    ])
    def test_type_confused_value_is_one_config_error(self, work, arm, path, value):
        assert train_with(work, arm, path, value) == (1, ["CONFIG"])

    @pytest.mark.parametrize("arm, path, value", [
        ("lr", ("lr", "seed"), 1),
        ("lr", ("lr", "shuffle"), False),
        ("enc", ("encoder_train", "seed"), 1),
        ("lr", ("seed",), None),
        ("enc", ("seed",), None),
        ("lr", ("format",), "xlsx"),
    ])
    def test_setting_no_config_has_is_one_config_error(self, work, tmp_path, arm, path, value):
        # The arm configs hold no seed or shuffle switch, the run seed is an
        # int, and the format is one the readers know.
        raw = json.loads((work / f"{arm}.json").read_text())
        out = tmp_path / "m.json"
        config = tmp_path / "run.json"
        config.write_text(json.dumps(with_value({**raw, "model_path": str(out)}, path, value)))
        assert run_cli("train", "--config", str(config)) == (1, ["CONFIG"])
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", '""', "3", "null"])
    def test_config_that_is_not_an_object_is_one_config_error(self, work, tmp_path, text):
        config, out = tmp_path / "run.json", tmp_path / "m.json"
        config.write_text(text)
        assert run_cli("train", "--config", str(config), "--train",
                       str(work / "train.tsv"), "--out", str(out)) == (1, ["CONFIG"])
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[" * 200_000 + "]" * 200_000,
        '{"lr": ' * 100_000 + "1" + "}" * 100_000,
        '{"seed": ' + "1" * 5000 + "}",
    ], ids=["deep list", "deep object", "long seed"])
    def test_deep_or_huge_json_is_one_config_error(self, work, tmp_path, text):
        config, out = tmp_path / "run.json", tmp_path / "m.json"
        config.write_text(text)
        assert run_cli("train", "--config", str(config), "--train",
                       str(work / "train.tsv"), "--out", str(out)) == (1, ["CONFIG"])
        assert not out.exists()


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
