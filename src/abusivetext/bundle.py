"""Versioned model persistence: one self-describing JSON document per model.

The bundle binds a trained model to the exact feature extractor and
preprocessing policy it was trained with, so prediction can never mix
mismatched pieces. Numeric arrays are stored inline as float64 repr values,
which round-trip exactly: load(save(b)) re-serializes to identical bytes.
Version mismatches are rejected outright, never migrated.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import encoder as enc
from .errors import BundleInconsistentError, BundleVersionError
from .linear import LinearModel, TrainConfigLR, TrainReportLR
from .textprep import CleanPolicy
from .vectorizer import TfIdfConfig, TfIdfModel, Vocabulary

FORMAT_VERSION = 1

KIND_TFIDF_LR = "tfidf_lr"
KIND_MICRO_ENCODER = "micro_encoder"


@dataclass
class TfIdfLrPayload:
    tfidf: TfIdfModel
    linear: LinearModel
    train_config: TrainConfigLR
    report: TrainReportLR


@dataclass
class MicroEncoderPayload:
    tokenizer: enc.SubwordTokenizer
    model: enc.EncoderModel
    train_config: enc.TrainConfigEnc
    report: enc.TrainReportEnc


@dataclass
class ModelBundle:
    model_kind: str
    language_tag: str
    policy: CleanPolicy
    payload: TfIdfLrPayload | MicroEncoderPayload
    format_version: int = FORMAT_VERSION


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleInconsistentError(message)


def _bundle_doc(bundle: ModelBundle) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format_version": bundle.format_version,
        "model_kind": bundle.model_kind,
        "language_tag": bundle.language_tag,
        "preprocessing": asdict(bundle.policy),
    }
    payload = bundle.payload
    if bundle.model_kind == KIND_TFIDF_LR:
        tfidf = payload.tfidf
        tokens = tfidf.vocab.tokens_in_index_order()
        doc["vectorizer"] = {
            "config": asdict(tfidf.config),
            "n_documents": tfidf.vocab.n_documents,
            "tokens": tokens,
            "document_frequency": [
                tfidf.vocab.document_frequency[t] for t in tokens
            ],
            "idf": list(tfidf.idf),
        }
        doc["linear"] = {
            "dimension": payload.linear.dimension,
            "weights": payload.linear.weights.tolist(),
            "bias": payload.linear.bias,
        }
        doc["train_config"] = asdict(payload.train_config)
        doc["training_report"] = asdict(payload.report)
    else:
        tokenizer = payload.tokenizer
        doc["tokenizer"] = {
            "specials": {"cls": enc.CLS_ID, "pad": enc.PAD_ID, "unk": enc.UNK_ID},
            "pieces": [piece.hex() for piece in tokenizer.pieces],
            "merges": [[a.hex(), b.hex()] for a, b in tokenizer.merges],
        }
        doc["encoder_config"] = asdict(payload.model.config)
        doc["parameters"] = [
            {
                "name": name,
                "shape": list(payload.model.params[name].shape),
                "values": payload.model.params[name].reshape(-1).tolist(),
            }
            for name in sorted(payload.model.params)
        ]
        doc["train_config"] = asdict(payload.train_config)
        doc["training_report"] = asdict(payload.report)
    return doc


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
    one, and BundleInconsistentError when the payload's pieces do not agree
    with each other (wrong array lengths, missing tensors, bad shapes).
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
    if kind not in (KIND_TFIDF_LR, KIND_MICRO_ENCODER):
        raise BundleInconsistentError(f"unknown model_kind {kind!r}")
    try:
        policy = CleanPolicy(**doc["preprocessing"])
        if kind == KIND_TFIDF_LR:
            payload = _load_tfidf_lr(doc)
        else:
            payload = _load_micro_encoder(doc)
    except BundleInconsistentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleInconsistentError(f"malformed bundle payload: {exc}") from exc
    return ModelBundle(
        model_kind=kind,
        language_tag=doc.get("language_tag", ""),
        policy=policy,
        payload=payload,
        format_version=version,
    )


def _load_tfidf_lr(doc: dict) -> TfIdfLrPayload:
    vec = doc["vectorizer"]
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
        vocab=vocab, idf=tuple(idf), config=TfIdfConfig(**vec["config"])
    )
    lin = doc["linear"]
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
    return TfIdfLrPayload(
        tfidf=tfidf,
        linear=linear,
        train_config=TrainConfigLR(**doc["train_config"]),
        report=TrainReportLR(**doc["training_report"]),
    )


def _load_micro_encoder(doc: dict) -> MicroEncoderPayload:
    tok = doc["tokenizer"]
    _require(
        tok.get("specials") == {"cls": enc.CLS_ID, "pad": enc.PAD_ID, "unk": enc.UNK_ID},
        "tokenizer special ids are not the expected ones",
    )
    tokenizer = enc.SubwordTokenizer(
        pieces=[bytes.fromhex(p) for p in tok["pieces"]],
        merges=[(bytes.fromhex(a), bytes.fromhex(b)) for a, b in tok["merges"]],
    )
    config = enc.EncoderConfig(**doc["encoder_config"])
    expected = enc.parameter_shapes(config, tokenizer.vocab_size)
    params: dict[str, np.ndarray] = {}
    for entry in doc["parameters"]:
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
    model = enc.EncoderModel(params, config, tokenizer.vocab_size)
    return MicroEncoderPayload(
        tokenizer=tokenizer,
        model=model,
        train_config=enc.TrainConfigEnc(**doc["train_config"]),
        report=enc.TrainReportEnc(**doc["training_report"]),
    )
