"""Versioned model persistence: one self-describing JSON document per model.

The bundle binds a trained model to the run config that trained it, so
prediction can never mix mismatched pieces. That config, file paths left
out, is the bundle's one settings record: the model kind, the cleaning
policy and every arm's settings are read from it and stored nowhere else.
Each model kind is one payload class with its ``KIND`` that trains
(``train``, on cleaned (text, label) pairs), scores (``probabilities``) and
stores (``to_doc``, ``from_doc``) its arm with the run config's settings;
PAYLOADS maps kind names to those classes.
Nothing derivable is stored: TF-IDF idf is recomputed from the document
frequencies on load, the LR dimension is the vocabulary size, and the
tokenizer's pieces are derived from its byte inventory and merge list with
encoder.derive_pieces, as training derives them. Nor is an encoder
parameter that training left at its initial value: the ``parameters``
section stores one bitmap over the model's flat parameter vector, the one
training descends on, marking the elements that differ from
``encoder.init_theta`` at the recorded config and seed, only those values,
and one sha256 of the whole vector that load checks after rebuilding that
init (see MicroEncoderPayload). Each float array is one ``{"dtype": "<f8",
"shape", "base64"}`` object of its little-endian bytes, so load(save(b))
re-serializes to identical bytes.
The rest is text: the TF-IDF vocabulary as its words and its n-grams' word
positions (see TfIdfLrPayload), the document frequencies as one string of
space-joined decimals, and the tokenizer as ``bytes`` (the single-byte
pieces, ascending, in hex) and ``merges`` (``left.right`` hex pairs in rank
order, space-joined). The recorded config holds the run's one seed; the
arm configs hold none. ``training_report`` has one layout for both arms
(per-epoch train losses and dev macro-F1, the latter empty for an LR run
without dev) and no payload reads it. Version mismatches are rejected
outright, never migrated: they end in BundleVersionError.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from . import encoder as enc, vectorizer
from .checks import check_fields
from .configs import MICRO_ENCODER, PATH_KEYS, TFIDF_LR, RunConfig
from .corpus import Label
from .errors import BundleInconsistentError, BundleVersionError, DevRequiredError
from .linear import LinearModel, predict_probas, train_lr
from .metrics import TrainReport
from .vectorizer import NGRAM_SEPARATOR, Rows, TfIdfModel, transform_rows

FORMAT_VERSION = 10
# Top-level keys of every bundle; each payload adds its own SECTIONS.
_BUNDLE_KEYS = ("format_version", "run_config", "training_report", "provenance")
# The keys of the recorded run config.
_RUN_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name not in PATH_KEYS)
Split = Sequence[tuple[str, Label]]  # (cleaned text, label) pairs, as train takes them

# Rows encoded per block when the encoder scores texts, far more than
# predict_probs runs per forward pass: alternating small encode and forward
# chunks made a fresh process take several times more minor page faults.
_ENCODE_BLOCK = 1024


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleInconsistentError(message)


def _require_keys(obj: dict, keys: Iterable[str], what: str) -> None:
    """obj holds exactly the keys the writer writes: a key load would not
    read is rejected, not dropped by the next save."""
    expected = set(keys)
    extra, missing = sorted(obj.keys() - expected), sorted(expected - obj.keys())
    _require(not extra and not missing, f"{what} has unexpected keys {extra}, missing {missing}")


def _section(doc: dict, key: str, keys: Iterable[str], where: str = "bundle") -> dict:
    value = doc.get(key)
    _require(isinstance(value, dict), f"{where} section {key!r} must be an object")
    _require_keys(value, keys, f"{where} section {key!r}")
    return value


def _record(cls: type, doc: dict, key: str) -> Any:
    """The dataclass ``cls`` built from section doc[key], which asdict wrote."""
    return cls(**_section(doc, key, [f.name for f in fields(cls)]))


def _run_config(doc: dict) -> RunConfig:
    """The recorded run config. It and each nested config hold exactly the
    keys the writer writes, so no setting is a default filled in on load;
    the config classes check the values."""
    raw = _section(doc, "run_config", _RUN_CONFIG_KEYS)
    for key, cls in RunConfig._NESTED.items():
        _section(raw, key, [f.name for f in fields(cls)], where="run_config")
    return RunConfig.from_dict(raw)


def encode_tensor(values: Any) -> dict[str, Any]:
    """The stored ``<f8`` form of a float array. Raises ValueError on a
    non-finite value, which no bundle may hold."""
    array = np.asarray(values, dtype="<f8")
    if not np.isfinite(array).all():
        raise ValueError("cannot store a non-finite value in a bundle")
    return {
        "dtype": "<f8",
        "shape": list(array.shape),
        "base64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _base64(text: Any, what: str) -> bytes:
    """The bytes that text holds in strict standard base64."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, binascii.Error, not ASCII
        raise BundleInconsistentError(f"{what} is not valid base64: {exc}") from exc


def decode_tensor(doc: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float64 array a stored tensor holds, writable and native. Raises
    BundleInconsistentError unless the object has exactly the three keys, the
    dtype is ``<f8``, the shape is a list of ints equal to ``shape``, the
    base64 is strict and decodes to 8 bytes per element, and every value is
    finite."""
    _require(
        isinstance(doc, dict) and doc.keys() == {"dtype", "shape", "base64"},
        f"{what} must be an object with exactly dtype, shape and base64",
    )
    _require(doc["dtype"] == "<f8", f"{what} dtype must be '<f8'")
    stored = doc["shape"]
    _require(
        isinstance(stored, list)
        and all(isinstance(n, int) and not isinstance(n, bool) for n in stored)
        and tuple(stored) == shape,
        f"{what} has shape {stored}, expected {list(shape)}",
    )
    raw = _base64(doc["base64"], what)
    size = 8 * math.prod(shape)
    _require(len(raw) == size, f"{what} holds {len(raw)} bytes, expected {size}")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    _require(bool(np.isfinite(values).all()), f"{what} contains non-finite values")
    return values.reshape(shape)


# The stored text fields, each empty or items joined by single spaces:
# positive ASCII decimals without leading zeros, at most 18 digits so that
# each fits int64, and lowercase-hex merge pairs.
_DECIMALS = re.compile(r"(?:[1-9][0-9]{0,17}(?: [1-9][0-9]{0,17})*)?")
# Word positions: decimals as above, and 0 for "no word".
_POSITIONS = re.compile(r"(?:(?:0|[1-9][0-9]{0,17})(?: (?:0|[1-9][0-9]{0,17}))*)?")
_HEX_BYTES = re.compile(r"(?:[0-9a-f]{2})*")
_HEX_PAIRS = re.compile(
    r"(?:(?:[0-9a-f]{2})+\.(?:[0-9a-f]{2})+(?: (?:[0-9a-f]{2})+\.(?:[0-9a-f]{2})+)*)?"
)


def _text(value: Any, pattern: re.Pattern, what: str) -> str:
    """value, when it is a string that pattern matches in full."""
    _require(isinstance(value, str) and pattern.fullmatch(value) is not None,
             f"{what} is not in its stored text form")
    return value


def _ascending(items: list[str]) -> bool:
    return all(map(str.__lt__, items, items[1:]))


def _words(value: Any, what: str) -> list[str]:
    """The words of a stored word list: one string of words joined by single
    spaces, strictly ascending, none holding the n-gram separator."""
    _require(isinstance(value, str), f"{what} must be one string")
    words = value.split()
    # Also rejects empty words and any whitespace but single spaces.
    _require(" ".join(words) == value, f"{what} must be joined by single spaces")
    _require(NGRAM_SEPARATOR not in value, f"{what} must not hold the n-gram separator")
    _require(_ascending(words), f"{what} must be strictly ascending")
    return words


def _split(ngrams: list[str]) -> Iterator[list[str]]:
    """The words of each n-gram, split anew on every call, so that no list
    of all the split n-grams is ever held."""
    return map(str.split, ngrams, repeat(NGRAM_SEPARATOR))


def _ngrams(value: Any, unigrams: list[str], inner_words: list[str]) -> list[str]:
    """The joined n-grams that the stored word positions spell, in stored
    order. Raises BundleInconsistentError unless value is the one list of
    position strings the writer writes for them."""
    _require(isinstance(value, list) and all(isinstance(text, str) for text in value),
             "vectorizer ngrams must be a list of strings")
    if not value:
        return []
    _require(len(value) > 1, "vectorizer ngrams cannot be one word position")
    columns = [
        np.fromstring(_text(text, _POSITIONS, "vectorizer ngrams"), np.int64, sep=" ")
        for text in value
    ]
    _require(len({len(column) for column in columns}) == 1,
             "vectorizer ngrams strings differ in length")
    positions = np.stack(columns)
    table = ["", *unigrams, *inner_words]
    _require(int(positions.max(initial=0)) < len(table),
             "vectorizer ngrams hold a position past the word table")
    _require(bool(positions[:2].all()), "every n-gram has at least two words")
    _require(not ((positions[:-1] == 0) & (positions[1:] != 0)).any(),
             "an n-gram has a word after its end")
    _require(bool(positions[-1].any()), "no n-gram has a word in the last position")
    _require(set(unigrams).isdisjoint(inner_words), "an inner word is also a unigram")
    uses = np.bincount(positions.ravel(), minlength=len(table))
    _require(bool(uses[1 + len(unigrams):].all()), "an inner word is used by no n-gram")
    # Position 0 reads as the empty word: its separators trail, and the
    # words themselves hold no separator to strip.
    words = [list(map(table.__getitem__, row)) for row in positions.tolist()]
    joined = list(map(str.rstrip, map(NGRAM_SEPARATOR.join, zip(*words)),
                      repeat(NGRAM_SEPARATOR)))
    _require(_ascending(joined), "vectorizer n-grams must be strictly ascending")
    return joined


@dataclass
class TfIdfLrPayload:
    """The TF-IDF + LR arm, trained, scored and stored: the vectorizer and LR.

    The ``vectorizer`` section stores the vocabulary as words and positions:
    ``unigrams``, the one-word tokens, and ``inner_words``, the words that
    occur only inside kept n-grams (a max_vocab cut can drop a word and keep
    an n-gram using it), each strictly ascending and single-space joined; and
    ``ngrams``, one string per word position, whose entry j is the 1-based
    position, in unigrams then inner_words, of the k-th word of the j-th
    n-gram (in ascending joined-string order), or 0 past that n-gram's end.
    There are as many strings as the longest n-gram has words, none when
    there is no n-gram. Load spells each n-gram out and merges the two
    ascending runs into the token list; anything the writer would not have
    written for that vocabulary is BundleInconsistentError."""

    KIND: ClassVar[str] = TFIDF_LR
    SECTIONS: ClassVar[tuple[str, ...]] = ("vectorizer", "linear")

    tfidf: TfIdfModel
    linear: LinearModel

    @classmethod
    def train(
        cls, config: RunConfig, train: Split, dev: Split | None
    ) -> tuple[TfIdfLrPayload, TrainReport]:
        tfidf = vectorizer.fit([text for text, _ in train], config.tfidf)

        def rows(split: Split) -> tuple[Rows, list[Label]]:
            return transform_rows(tfidf, [text for text, _ in split]), [label for _, label in split]

        model, report = train_lr(
            *rows(train), config.lr, config.seed, None if dev is None else rows(dev)
        )
        return cls(tfidf, model), report

    def probabilities(self, cleaned_texts: list[str]) -> list[float]:
        return predict_probas(self.linear, transform_rows(self.tfidf, cleaned_texts))

    def built_with(self, config: RunConfig) -> bool:
        return self.tfidf.config == config.tfidf

    def to_doc(self, config: RunConfig) -> dict[str, Any]:
        tfidf = self.tfidf
        unigrams = [t for t in tfidf.tokens if NGRAM_SEPARATOR not in t]
        ngrams = [t for t in tfidf.tokens if NGRAM_SEPARATOR in t]
        inner_words = sorted(set(chain.from_iterable(_split(ngrams))).difference(unigrams))
        # Each word's 1-based position in the word table, as stored text.
        position = {w: str(i) for i, w in enumerate(unigrams + inner_words, start=1)}
        longest = max(map(str.count, ngrams, repeat(NGRAM_SEPARATOR)), default=-1) + 1
        return {
            "vectorizer": {
                "n_documents": tfidf.n_documents,
                "unigrams": " ".join(unigrams),
                "inner_words": " ".join(inner_words),
                "ngrams": [
                    " ".join([position[w[k]] if k < len(w) else "0" for w in _split(ngrams)])
                    for k in range(longest)
                ],
                "document_frequency": " ".join(map(str, tfidf.document_frequency.tolist())),
            },
            "linear": {
                "weights": encode_tensor(self.linear.weights),
                "bias": self.linear.bias,
            },
        }

    @classmethod
    def from_doc(cls, doc: dict, config: RunConfig) -> "TfIdfLrPayload":
        vec = _section(doc, "vectorizer", (
            "n_documents", "unigrams", "inner_words", "ngrams", "document_frequency",
        ))
        unigrams = _words(vec["unigrams"], "vectorizer unigrams")
        inner_words = _words(vec["inner_words"], "vectorizer inner_words")
        # Two ascending runs: the sort merges them in one linear pass.
        tokens = sorted(unigrams + _ngrams(vec["ngrams"], unigrams, inner_words))
        _require(len(vec["ngrams"]) <= config.tfidf.ngram_max,
                 f"vectorizer ngrams hold {len(vec['ngrams'])}-word n-grams, "
                 f"past the run config's ngram_max {config.tfidf.ngram_max}")
        dfs = np.fromstring(
            _text(vec["document_frequency"], _DECIMALS, "vectorizer df"), np.int64, sep=" "
        )
        _require(len(dfs) == len(tokens),
                 f"vectorizer df holds {len(dfs)} values for {len(tokens)} tokens")
        tfidf = TfIdfModel(
            tokens=tokens,
            document_frequency=dfs,
            n_documents=vec["n_documents"],
            config=config.tfidf,
        )
        lin = _section(doc, "linear", ("weights", "bias"))
        linear = LinearModel(
            weights=decode_tensor(lin["weights"], (tfidf.dimension,), "linear weights"),
            bias=lin["bias"],
        )
        return cls(tfidf, linear)


def _bits(values: np.ndarray) -> np.ndarray:
    """The float64 values as their uint64 bit patterns, so that -0.0 and
    +0.0 differ."""
    return np.ascontiguousarray(values, dtype="<f8").view("<u8")


def _digest(theta: np.ndarray) -> str:
    """The sha256 of the flat parameter vector's ``<f8`` bytes."""
    return hashlib.sha256(_bits(theta).tobytes()).hexdigest()


_SHA256 = re.compile(r"[0-9a-f]{64}")


@dataclass
class MicroEncoderPayload:
    """The micro-encoder arm, trained (on a dev split too), scored and stored:
    the subword tokenizer and the encoder model.

    The ``parameters`` section stores the model's flat vector ``theta``, the
    one training descends on, its tensors end to end in the table's order:
    ``changed``, the base64 of its little-endian ``np.packbits`` bitmap, one
    bit per element, set where the element's bits differ from
    ``encoder.init_theta`` at the run config's encoder settings and seed;
    ``values``, the stored ``<f8`` tensor of the set elements in order; and
    ``sha256``, the digest of the whole vector's ``<f8`` bytes. Parameters a
    training step never touches (embedding rows of pieces no training row
    holds, positions past the longest batch, the weights of dead ReLU units)
    keep their seeded values bit for bit, so none of them is stored. Load
    rebuilds that init, writes the values over it and checks the digest,
    which fails if this numpy does not draw the seeded init the writer
    drew."""

    KIND: ClassVar[str] = MICRO_ENCODER
    SECTIONS: ClassVar[tuple[str, ...]] = ("tokenizer", "parameters")

    tokenizer: enc.SubwordTokenizer
    model: enc.EncoderModel

    @classmethod
    def train(
        cls, config: RunConfig, train: Split, dev: Split | None
    ) -> tuple[MicroEncoderPayload, TrainReport]:
        if dev is None:
            raise DevRequiredError(
                "the micro_encoder arm evaluates on dev every epoch; supply --dev"
            )
        tokenizer = enc.train_subword([text for text, _ in train], config.encoder_vocab_size)
        model, report = enc.train_encoder(
            train, dev, tokenizer, config.encoder, config.encoder_train, config.seed
        )
        return cls(tokenizer, model), report

    def probabilities(self, cleaned_texts: list[str]) -> list[float]:
        max_length = self.model.config.max_length
        probs: list[float] = []
        for start in range(0, len(cleaned_texts), _ENCODE_BLOCK):
            block = cleaned_texts[start : start + _ENCODE_BLOCK]
            ids, mask = enc.encode_batch(self.tokenizer, block, max_length)
            probs.extend(float(p) for p in enc.predict_probs(self.model, ids, mask))
        return probs

    def built_with(self, config: RunConfig) -> bool:
        return self.model.config == config.encoder

    def to_doc(self, config: RunConfig) -> dict[str, Any]:
        tokenizer, theta = self.tokenizer, self.model.theta
        byte_pieces = sorted(p for p in tokenizer.pieces if len(p) == 1)
        if enc.derive_pieces(byte_pieces, tokenizer.merges) != list(tokenizer.pieces):
            raise ValueError("the tokenizer's pieces are not the ones its bytes and merges derive")
        init = enc.init_theta(config.encoder, tokenizer.vocab_size, config.seed)
        changed = _bits(theta) != _bits(init)
        return {
            "tokenizer": {
                "bytes": b"".join(byte_pieces).hex(),
                "merges": " ".join(f"{a.hex()}.{b.hex()}" for a, b in tokenizer.merges),
            },
            "parameters": {
                "changed": base64.b64encode(
                    np.packbits(changed, bitorder="little").tobytes()
                ).decode("ascii"),
                "values": encode_tensor(theta[changed]),
                "sha256": _digest(theta),
            },
        }

    @classmethod
    def from_doc(cls, doc: dict, config: RunConfig) -> "MicroEncoderPayload":
        tok = _section(doc, "tokenizer", ("bytes", "merges"))
        inventory = bytes.fromhex(_text(tok["bytes"], _HEX_BYTES, "tokenizer bytes"))
        _require(all(a < b for a, b in zip(inventory, inventory[1:])),
                 "tokenizer bytes must be strictly ascending")
        merges = [
            tuple(map(bytes.fromhex, pair.split(".")))
            for pair in _text(tok["merges"], _HEX_PAIRS, "tokenizer merges").split()
        ]
        # derive_pieces raises ValueError for an operand that is not yet a piece.
        pieces = enc.derive_pieces([bytes([b]) for b in inventory], merges)
        tokenizer = enc.SubwordTokenizer(pieces=pieces, merges=merges)
        settings = config.encoder
        section = _section(doc, "parameters", ("changed", "values", "sha256"))
        raw = _base64(section["changed"], "parameters changed")
        size = enc.parameter_count(settings, tokenizer.vocab_size)
        # Checked before the init or the model is built, so no config,
        # however large, allocates more than the stored bitmap describes.
        _require(len(raw) == -(-size // 8),
                 f"parameters changed holds {len(raw)} bytes, expected {-(-size // 8)} "
                 f"for {size} elements")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        _require(not bits[size:].any(), "parameters changed has a pad bit set")
        changed = bits[:size].astype(bool)
        values = decode_tensor(section["values"], (int(changed.sum()),), "parameters values")
        theta = enc.init_theta(settings, tokenizer.vocab_size, config.seed)
        _require(bool((_bits(values) != _bits(theta[changed])).all()),
                 "parameters store a value equal to its initial value")
        theta[changed] = values
        _require(
            _text(section["sha256"], _SHA256, "parameters sha256") == _digest(theta),
            "parameters do not match their sha256: either this numpy "
            f"({np.__version__}) does not draw the seeded initialization the "
            "bundle was written against, or the bundle is corrupt",
        )
        return cls(tokenizer, enc.EncoderModel(theta, settings, tokenizer.vocab_size))


PAYLOADS: dict[str, type[TfIdfLrPayload | MicroEncoderPayload]] = {
    cls.KIND: cls for cls in (TfIdfLrPayload, MicroEncoderPayload)
}


@dataclass
class Provenance:
    """Where a bundle came from: the sha256 of the train and dev bytes and
    the package and numpy versions. It records no timestamp, path or host,
    so the same run repeated writes the same bytes."""

    train_sha256: str
    dev_sha256: str | None
    abusivetext_version: str
    numpy_version: str

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def of_run(cls, train: bytes, dev: bytes | None) -> "Provenance":
        from . import __version__

        return cls(
            train_sha256=hashlib.sha256(train).hexdigest(),
            dev_sha256=None if dev is None else hashlib.sha256(dev).hexdigest(),
            abusivetext_version=__version__,
            numpy_version=np.__version__,
        )


@dataclass
class ModelBundle:
    """A trained payload, the run config that trained it, its training
    report and where it came from. Raises ValueError unless the payload is
    of the config's model kind and holds the config's settings for its arm,
    so the recorded config can never disagree with the model it describes."""

    config: RunConfig
    payload: TfIdfLrPayload | MicroEncoderPayload
    report: TrainReport
    provenance: Provenance

    def __post_init__(self):
        kind = self.config.model_kind
        if self.payload.KIND != kind:
            raise ValueError(f"a {self.payload.KIND} payload cannot go in a {kind} bundle")
        if not self.payload.built_with(self.config):
            raise ValueError(f"the {kind} payload was not built with the run config's settings")


def _bundle_doc(bundle: ModelBundle) -> dict[str, Any]:
    run_config = bundle.config.to_dict()
    return {
        "format_version": FORMAT_VERSION,
        "run_config": {key: run_config[key] for key in _RUN_CONFIG_KEYS},
        **bundle.payload.to_doc(bundle.config),
        "training_report": asdict(bundle.report),
        "provenance": asdict(bundle.provenance),
    }


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    Path(path).write_bytes(serialize_bundle(bundle))


def serialize_bundle(bundle: ModelBundle) -> bytes:
    text = json.dumps(
        _bundle_doc(bundle), ensure_ascii=False, indent=2, allow_nan=False
    )
    return (text + "\n").encode("utf-8")


def deserialize_bundle(data: bytes) -> ModelBundle:
    """Parse and validate a bundle document.

    Raises BundleVersionError for any format_version other than the current
    one, and BundleInconsistentError for anything else the document gets
    wrong: bytes that are not JSON (nesting too deep and integer literals
    too long included), a run_config that is not one the writer writes or
    that its config classes reject, a section that is not an object, a key
    the writer does not write or a missing one, or payload pieces that do
    not agree with each other or with the config (wrong array lengths, a
    bitmap of the wrong length or with pad bits set, a value count that is
    not the bits set, stored tensors that do not decode, a
    stored parameter equal to its initial value, parameters that do not
    match their digest, text fields not in their stored form, n-gram
    positions that are not the ones the writer writes or longer than
    ngram_max, a merge operand that is not yet a piece).
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal past the int conversion limit.
    except (ValueError, RecursionError) as exc:
        raise BundleInconsistentError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BundleInconsistentError(
            f"bundle must be a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise BundleVersionError(
            f"unsupported bundle format_version {version!r}; expected {FORMAT_VERSION}"
        )
    try:
        config = _run_config(doc)
        payload_class = PAYLOADS[config.model_kind]
        _require_keys(doc, _BUNDLE_KEYS + payload_class.SECTIONS, "bundle")
        return ModelBundle(
            config=config,
            payload=payload_class.from_doc(doc, config),
            report=_record(TrainReport, doc, "training_report"),
            provenance=_record(Provenance, doc, "provenance"),
        )
    except BundleInconsistentError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleInconsistentError(f"malformed bundle payload: {exc}") from exc
