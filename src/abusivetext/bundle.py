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
"shape", "base64"}`` object of its little-endian bytes.
The rest is text: the TF-IDF vocabulary in the one word-id form that
vectorizer.TfIdfModel holds and checks, its words space-joined and its
n-gram word positions and document frequencies as space-joined decimals (see
TfIdfLrPayload), so that save formats integers and load parses them, neither
splitting an n-gram; and the tokenizer as ``bytes`` (the single-byte
pieces, ascending, in hex) and ``merges`` (``left.right`` hex pairs in rank
order, space-joined). The recorded config holds the run's one seed; the
arm configs hold none. ``training_report`` has one layout for both arms
(per-epoch train losses and dev macro-F1, the latter empty for an LR run
without dev) and no payload reads it. Version mismatches are rejected
outright, never migrated: they end in BundleVersionError.
Load accepts exactly what save writes: it decodes the document, builds the
bundle, and requires the writer's own encoding of that bundle to be the
document it read (see deserialize_bundle). So a loaded bundle re-serializes
to its own bytes, and no rule per field restates the writer's layout.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, ClassVar, Sequence

import numpy as np

from . import encoder as enc, vectorizer
from .checks import check_fields
from .configs import MICRO_ENCODER, PATH_KEYS, TFIDF_LR, RunConfig
from .corpus import Label
from .errors import BundleInconsistentError, BundleVersionError, DevRequiredError
from .linear import LinearModel, predict_probas, train_lr
from .metrics import TrainReport
from .vectorizer import Rows, TfIdfModel, transform_rows

FORMAT_VERSION = 10
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


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key)
    _require(isinstance(value, dict), f"bundle section {key!r} must be an object")
    return value


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
_SHA256 = re.compile(r"[0-9a-f]{64}")
_HEX_PAIRS = re.compile(
    r"(?:(?:[0-9a-f]{2})+\.(?:[0-9a-f]{2})+(?: (?:[0-9a-f]{2})+\.(?:[0-9a-f]{2})+)*)?"
)


def _text(value: Any, pattern: re.Pattern, what: str) -> str:
    """value, when it is a string that pattern matches in full."""
    _require(isinstance(value, str) and pattern.fullmatch(value) is not None,
             f"{what} is not in its stored text form")
    return value


def _words(value: Any, what: str) -> list[str]:
    """The words of a stored word list: one string of space-joined words."""
    _require(isinstance(value, str), f"{what} must be one string")
    return value.split()


def _positions(value: Any) -> np.ndarray:
    """The stored n-gram position strings as one int64 array, a row per
    string. Raises BundleInconsistentError for a value that is not a list of
    position strings; np.stack raises ValueError for strings of unequal
    length. TfIdfModel checks what the positions spell."""
    _require(isinstance(value, list) and all(isinstance(text, str) for text in value),
             "vectorizer ngrams must be a list of strings")
    if not value:
        return np.zeros((0, 0), dtype=np.int64)
    return np.stack([
        np.fromstring(_text(text, _POSITIONS, "vectorizer ngrams"), np.int64, sep=" ")
        for text in value
    ])


@dataclass
class TfIdfLrPayload:
    """The TF-IDF + LR arm, trained, scored and stored: the vectorizer and LR.

    The ``vectorizer`` section stores the vocabulary in TfIdfModel's form:
    ``unigrams`` and ``inner_words``, each single-space joined, and
    ``ngrams``, one string per row of the n-gram positions, whose entry j is
    the 1-based position, in unigrams then inner_words, of that row's word
    of the j-th n-gram, or 0 past that n-gram's end. There are as many
    strings as the longest n-gram has words, none when there is no n-gram.
    Saving formats the model's integers, and loading passes the parsed ones
    to TfIdfModel, whose constructor refuses any form but the one fit
    derives. Load itself checks only what decoding needs (text forms and
    the df count); deserialize_bundle's re-encode refuses any other layout
    the writer would not have written for that vocabulary."""

    KIND: ClassVar[str] = TFIDF_LR

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
        return {
            "vectorizer": {
                "n_documents": tfidf.n_documents,
                "unigrams": " ".join(tfidf.unigrams),
                "inner_words": " ".join(tfidf.inner_words),
                "ngrams": [" ".join(map(str, row)) for row in tfidf.ngram_positions.tolist()],
                "document_frequency": " ".join(map(str, tfidf.document_frequency.tolist())),
            },
            "linear": {
                "weights": encode_tensor(self.linear.weights),
                "bias": self.linear.bias,
            },
        }

    @classmethod
    def from_doc(cls, doc: dict, config: RunConfig) -> "TfIdfLrPayload":
        vec = _section(doc, "vectorizer")
        unigrams = _words(vec["unigrams"], "vectorizer unigrams")
        positions = _positions(vec["ngrams"])
        dfs = np.fromstring(
            _text(vec["document_frequency"], _DECIMALS, "vectorizer df"), np.int64, sep=" "
        )
        n_tokens = len(unigrams) + positions.shape[1]
        _require(len(dfs) == n_tokens,
                 f"vectorizer df holds {len(dfs)} values for {n_tokens} tokens")
        tfidf = TfIdfModel(
            unigrams=unigrams,
            inner_words=_words(vec["inner_words"], "vectorizer inner_words"),
            ngram_positions=positions,
            document_frequency=dfs,
            n_documents=vec["n_documents"],
            config=config.tfidf,
        )
        lin = _section(doc, "linear")
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
    checks the bitmap's length against the recorded config before any init
    is built, rebuilds that init, writes the values over a copy of it and
    checks the digest, first for its stored form, 64 lowercase hex digits,
    then for its value, which fails if this numpy does not draw the seeded
    init the writer drew. The payload keeps that draw, so the re-encode
    compares the loaded vector's bits with it instead of drawing again. A
    bitmap the writer would not write for the loaded vector
    (a pad bit set, a value marked changed that equals its init) is left to
    deserialize_bundle's re-encode."""

    KIND: ClassVar[str] = MICRO_ENCODER

    tokenizer: enc.SubwordTokenizer
    model: enc.EncoderModel
    # The init from_doc drew, keyed by init_theta's arguments, so that the
    # load's re-encode does not draw it again; not part of equality.
    drawn_init: tuple[tuple, np.ndarray] | None = field(default=None, compare=False, repr=False)

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
        args = (config.encoder, tokenizer.vocab_size, config.seed)
        if self.drawn_init is not None and self.drawn_init[0] == args:
            init = self.drawn_init[1]
        else:
            init = enc.init_theta(*args)
        # Computed afresh from theta, never copied from what was read.
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
        tok = _section(doc, "tokenizer")
        inventory = bytes.fromhex(_text(tok["bytes"], _HEX_BYTES, "tokenizer bytes"))
        merges = [
            tuple(map(bytes.fromhex, pair.split(".")))
            for pair in _text(tok["merges"], _HEX_PAIRS, "tokenizer merges").split()
        ]
        # derive_pieces raises ValueError for an operand that is not yet a piece.
        pieces = enc.derive_pieces([bytes([b]) for b in inventory], merges)
        tokenizer = enc.SubwordTokenizer(pieces=pieces, merges=merges)
        settings = config.encoder
        section = _section(doc, "parameters")
        raw = _base64(section["changed"], "parameters changed")
        size = enc.parameter_count(settings, tokenizer.vocab_size)
        # Checked before the init or the model is built, so no config,
        # however large, allocates more than the stored bitmap describes.
        _require(len(raw) == -(-size // 8),
                 f"parameters changed holds {len(raw)} bytes, expected {-(-size // 8)} "
                 f"for {size} elements")
        changed = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=size, bitorder="little"
        ).astype(bool)
        values = decode_tensor(section["values"], (int(changed.sum()),), "parameters values")
        args = (settings, tokenizer.vocab_size, config.seed)
        init = enc.init_theta(*args)
        theta = init.copy()
        theta[changed] = values
        _require(
            _text(section["sha256"], _SHA256, "parameters sha256") == _digest(theta),
            "parameters do not match their sha256: either this numpy "
            f"({np.__version__}) does not draw the seeded initialization the "
            "bundle was written against, or the bundle is corrupt",
        )
        return cls(tokenizer, enc.EncoderModel(theta, settings, tokenizer.vocab_size),
                   (args, init))


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
    """Parse, build and check a bundle document.

    Raises BundleVersionError for any format_version other than the current
    one, and BundleInconsistentError for anything else the document gets
    wrong. Decoding refuses bytes that are not JSON (nesting too deep and
    integer literals too long included), a section that is not an object, a
    missing key, values that the config, model and payload classes reject
    (TfIdfModel refuses every vocabulary form but the one fit derives: word
    order and overlap, positions past the word table or after a 0, n-grams
    longer than ngram_max or out of order), text fields not in their stored
    form, tensors that do not decode, and payload pieces that do not fit
    each other or the config (a df count or bitmap length that does not
    fit, a merge operand that is not yet a piece, parameters that do not
    match their digest). Then the writer's own code
    encodes the loaded bundle again: a document other than the one read (a
    stray key, a default filled in, any layout the writer never writes) is
    BundleInconsistentError, and so is any error that encoding raises. The
    documents are compared, not their bytes, so the same document with its
    keys reordered or indented otherwise loads.
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
        config = RunConfig.from_dict(_section(doc, "run_config"))
        bundle = ModelBundle(
            config=config,
            payload=PAYLOADS[config.model_kind].from_doc(doc, config),
            report=TrainReport(**_section(doc, "training_report")),
            provenance=Provenance(**_section(doc, "provenance")),
        )
        # The one layout check: the writer, given the loaded bundle, writes
        # back the document that was read.
        written = _bundle_doc(bundle)
        if written != doc:
            differ = sorted(k for k in written.keys() | doc.keys() if written.get(k) != doc.get(k))
            raise BundleInconsistentError(
                f"bundle sections {differ} are not what save writes for the model they load"
            )
        return bundle
    except BundleInconsistentError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleInconsistentError(f"malformed bundle payload: {exc}") from exc
