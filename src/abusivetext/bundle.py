"""Versioned model persistence: one self-describing JSON document per model.

The bundle binds a trained model to the exact feature extractor and
preprocessing policy it was trained with, so prediction can never mix
mismatched pieces. Each model kind is one payload class with its ``KIND``,
``probabilities`` over cleaned texts and its own document sections
(``to_doc``/``from_doc``); PAYLOADS maps kind names to those classes, and a
bundle's kind is its payload's. Numeric arrays are stored inline as float64
repr values, which round-trip exactly: load(save(b)) re-serializes to
identical bytes. Version mismatches are rejected outright, never migrated.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from . import encoder as enc
from .errors import BundleInconsistentError, BundleVersionError
from .linear import LinearModel, TrainConfigLR, TrainReportLR, predict_probas
from .textprep import CleanPolicy
from .vectorizer import TfIdfConfig, TfIdfModel, Vocabulary, transform

FORMAT_VERSION = 1

# Rows encoded per block when the encoder scores texts, far more than
# predict_probs runs per forward pass: alternating small encode and forward
# chunks made a fresh process take several times more minor page faults.
_ENCODE_BLOCK = 1024


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleInconsistentError(message)


def _section(doc: dict, key: str) -> dict:
    value = doc[key]
    _require(isinstance(value, dict), f"bundle section {key!r} must be an object")
    return value


@dataclass
class TfIdfLrPayload:
    KIND: ClassVar[str] = "tfidf_lr"

    tfidf: TfIdfModel
    linear: LinearModel
    train_config: TrainConfigLR
    report: TrainReportLR

    def probabilities(self, cleaned_texts: list[str]) -> list[float]:
        return predict_probas(
            self.linear, [transform(self.tfidf, text) for text in cleaned_texts]
        )

    def to_doc(self) -> dict[str, Any]:
        vocab = self.tfidf.vocab
        tokens = vocab.tokens_in_index_order()
        return {
            "vectorizer": {
                "config": asdict(self.tfidf.config),
                "n_documents": vocab.n_documents,
                "tokens": tokens,
                "document_frequency": [vocab.document_frequency[t] for t in tokens],
                "idf": list(self.tfidf.idf),
            },
            "linear": {
                "dimension": self.linear.dimension,
                "weights": self.linear.weights.tolist(),
                "bias": self.linear.bias,
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TfIdfLrPayload":
        vec = _section(doc, "vectorizer")
        tokens = vec["tokens"]
        dfs = vec["document_frequency"]
        idf = vec["idf"]
        _require(
            len(tokens) == len(dfs) == len(idf),
            "vectorizer token/df/idf lengths disagree",
        )
        _require(len(set(tokens)) == len(tokens), "vectorizer tokens are not unique")
        vocab = Vocabulary(
            token_to_index={t: i for i, t in enumerate(tokens)},
            document_frequency=dict(zip(tokens, dfs)),
            n_documents=vec["n_documents"],
        )
        tfidf = TfIdfModel(
            vocab=vocab, idf=tuple(idf), config=TfIdfConfig(**_section(vec, "config"))
        )
        lin = _section(doc, "linear")
        _require(
            lin["dimension"] == len(tokens),
            "linear dimension does not match vocabulary size",
        )
        _require(
            len(lin["weights"]) == lin["dimension"],
            "linear weights length does not match dimension",
        )
        linear = LinearModel(
            weights=np.array(lin["weights"], dtype=np.float64),
            bias=float(lin["bias"]),
            dimension=int(lin["dimension"]),
        )
        return cls(
            tfidf=tfidf,
            linear=linear,
            train_config=TrainConfigLR(**_section(doc, "train_config")),
            report=TrainReportLR(**_section(doc, "training_report")),
        )


@dataclass
class MicroEncoderPayload:
    KIND: ClassVar[str] = "micro_encoder"

    tokenizer: enc.SubwordTokenizer
    model: enc.EncoderModel
    train_config: enc.TrainConfigEnc
    report: enc.TrainReportEnc

    def probabilities(self, cleaned_texts: list[str]) -> list[float]:
        max_length = self.model.config.max_length
        probs: list[float] = []
        for start in range(0, len(cleaned_texts), _ENCODE_BLOCK):
            block = cleaned_texts[start : start + _ENCODE_BLOCK]
            ids, mask = enc.encode_batch(self.tokenizer, block, max_length)
            probs.extend(float(p) for p in enc.predict_probs(self.model, ids, mask))
        return probs

    def to_doc(self) -> dict[str, Any]:
        params = self.model.params
        return {
            "tokenizer": {
                "specials": {"cls": enc.CLS_ID, "pad": enc.PAD_ID, "unk": enc.UNK_ID},
                "pieces": [piece.hex() for piece in self.tokenizer.pieces],
                "merges": [[a.hex(), b.hex()] for a, b in self.tokenizer.merges],
            },
            "encoder_config": asdict(self.model.config),
            "parameters": [
                {
                    "name": name,
                    "shape": list(params[name].shape),
                    "values": params[name].reshape(-1).tolist(),
                }
                for name in sorted(params)
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "MicroEncoderPayload":
        tok = _section(doc, "tokenizer")
        _require(
            tok.get("specials") == {"cls": enc.CLS_ID, "pad": enc.PAD_ID, "unk": enc.UNK_ID},
            "tokenizer special ids are not the expected ones",
        )
        tokenizer = enc.SubwordTokenizer(
            pieces=[bytes.fromhex(p) for p in tok["pieces"]],
            merges=[(bytes.fromhex(a), bytes.fromhex(b)) for a, b in tok["merges"]],
        )
        config = enc.EncoderConfig(**_section(doc, "encoder_config"))
        entries = doc["parameters"]
        # Every layer owns tensors; checked first, a huge n_layers builds no shapes.
        _require(config.n_layers <= len(entries), "more layers than parameter tensors")
        expected = enc.parameter_shapes(config, tokenizer.vocab_size)
        params: dict[str, np.ndarray] = {}
        for entry in entries:
            name, shape = entry["name"], tuple(entry["shape"])
            _require(name in expected, f"unexpected parameter tensor {name!r}")
            _require(
                shape == expected[name],
                f"parameter {name!r} has shape {shape}, expected {expected[name]}",
            )
            values = np.array(entry["values"], dtype=np.float64)
            _require(
                values.size == int(np.prod(shape, dtype=np.int64)),
                f"parameter {name!r} has {values.size} values for shape {shape}",
            )
            _require(
                bool(np.all(np.isfinite(values))),
                f"parameter {name!r} contains non-finite values",
            )
            params[name] = values.reshape(shape)
        missing = set(expected) - set(params)
        _require(not missing, f"bundle is missing parameter tensors: {sorted(missing)}")
        return cls(
            tokenizer=tokenizer,
            model=enc.EncoderModel(params, config, tokenizer.vocab_size),
            train_config=enc.TrainConfigEnc(**_section(doc, "train_config")),
            report=enc.TrainReportEnc(**_section(doc, "training_report")),
        )


PAYLOADS: dict[str, type[TfIdfLrPayload | MicroEncoderPayload]] = {
    cls.KIND: cls for cls in (TfIdfLrPayload, MicroEncoderPayload)
}


@dataclass
class ModelBundle:
    language_tag: str
    policy: CleanPolicy
    payload: TfIdfLrPayload | MicroEncoderPayload
    format_version: int = FORMAT_VERSION

    @property
    def model_kind(self) -> str:
        return self.payload.KIND


def _bundle_doc(bundle: ModelBundle) -> dict[str, Any]:
    payload = bundle.payload
    return {
        "format_version": bundle.format_version,
        "model_kind": payload.KIND,
        "language_tag": bundle.language_tag,
        "preprocessing": asdict(bundle.policy),
        **payload.to_doc(),
        "train_config": asdict(payload.train_config),
        "training_report": asdict(payload.report),
    }


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    Path(path).write_bytes(serialize_bundle(bundle))


def serialize_bundle(bundle: ModelBundle) -> bytes:
    text = json.dumps(
        _bundle_doc(bundle), ensure_ascii=False, indent=2, allow_nan=False
    )
    return (text + "\n").encode("utf-8")


def load_bundle(path: str | Path) -> ModelBundle:
    return deserialize_bundle(Path(path).read_bytes())


def deserialize_bundle(data: bytes) -> ModelBundle:
    """Parse and validate a bundle document.

    Raises BundleVersionError for any format_version other than the current
    one, and BundleInconsistentError for anything else the document gets
    wrong: an unknown model_kind, a section that is not an object, or
    payload pieces that do not agree with each other (wrong array lengths,
    missing tensors, bad shapes).
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleInconsistentError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BundleInconsistentError(
            f"bundle must be a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleVersionError(
            f"unsupported bundle format_version {version!r}; expected {FORMAT_VERSION}"
        )
    kind = doc.get("model_kind")
    payload_class = PAYLOADS.get(kind) if isinstance(kind, str) else None
    if payload_class is None:
        raise BundleInconsistentError(f"unknown model_kind {kind!r}")
    try:
        policy = CleanPolicy(**_section(doc, "preprocessing"))
        payload = payload_class.from_doc(doc)
    except BundleInconsistentError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleInconsistentError(f"malformed bundle payload: {exc}") from exc
    return ModelBundle(
        language_tag=doc.get("language_tag", ""),
        policy=policy,
        payload=payload,
        format_version=version,
    )
