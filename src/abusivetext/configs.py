"""The two model kinds, the configs of their arms and the run config that
holds them all, kept free of numpy.

``cli`` builds its run config here without importing the array modules, so
the commands that never train or predict start without numpy. A bundle
stores the run config as its one settings record. ``vectorizer``, ``linear``
and ``encoder`` import their configs from here. The arm configs hold no
seed: the run config's one ``seed`` drives whichever arm a run trains, and
no setting is read from the environment.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .checks import check_fields
from .corpus import FileFormat
from .textprep import CleanPolicy

# Model kind names: bundle payload KINDs and the --model-kind choices.
TFIDF_LR = "tfidf_lr"
MICRO_ENCODER = "micro_encoder"
MODEL_KINDS = (TFIDF_LR, MICRO_ENCODER)

# The run config's file paths: a bundle records the config without them.
PATH_KEYS = ("train_path", "dev_path", "model_path")


@dataclass(frozen=True)
class TfIdfConfig:
    min_df: int = 1
    max_vocab: int | None = None
    ngram_max: int = 1
    l2_normalize: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        if self.ngram_max < 1:
            raise ValueError("ngram_max must be >= 1")
        if self.max_vocab is not None and self.max_vocab < 0:
            raise ValueError("max_vocab must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    """The mini-batch descent settings both arms train with. None of these
    come from any published recipe; they are toolkit defaults chosen for
    reproducible desk-scale runs."""

    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32

    def __post_init__(self):
        check_fields(self)
        # lr = 0 is allowed: "no update" runs are useful as a baseline check.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class TrainConfigLR(TrainConfig):
    l2_penalty: float = 1e-4

    def __post_init__(self):
        super().__post_init__()
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_length: int = 128
    dropout: float = 0.0

    def __post_init__(self):
        check_fields(self)
        for name in ("d_model", "n_heads", "n_layers", "d_ff", "max_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass(frozen=True)
class TrainConfigEnc(TrainConfig):
    """Fine-tuning-style regime: fixed epoch count, per-epoch dev evaluation,
    no early stopping. The 1e-5 default step size is far too small for
    from-scratch training; raise it explicitly for desk-scale runs."""

    learning_rate: float = 1e-5
    epochs: int = 5
    batch_size: int = 32


@dataclass
class RunConfig:
    """Everything a training run needs; serializable so runs can be replayed.

    ``seed`` is the run's one seed: it drives the shuffling, initialization
    and dropout of whichever arm the run trains.
    """

    train_path: str | None = None
    dev_path: str | None = None
    model_path: str | None = None
    model_kind: str = TFIDF_LR
    language_tag: str = ""
    format: str = "tsv"
    seed: int = 0
    preprocessing: CleanPolicy = field(default_factory=CleanPolicy)
    tfidf: TfIdfConfig = field(default_factory=TfIdfConfig)
    lr: TrainConfigLR = field(default_factory=TrainConfigLR)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    encoder_train: TrainConfigEnc = field(default_factory=TrainConfigEnc)
    encoder_vocab_size: int = 512

    _NESTED = {
        "preprocessing": CleanPolicy,
        "tfidf": TfIdfConfig,
        "lr": TrainConfigLR,
        "encoder": EncoderConfig,
        "encoder_train": TrainConfigEnc,
    }

    def __post_init__(self):
        check_fields(self)
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model_kind {self.model_kind!r}")
        if self.format not in {f.value for f in FileFormat}:
            raise ValueError(f"unknown format {self.format!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.encoder_vocab_size < 4:
            raise ValueError(
                "encoder_vocab_size must be >= 4 (three specials and one byte)"
            )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValueError("run config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        for key, value in raw.items():
            nested_cls = cls._NESTED.get(key)
            if nested_cls is None:
                continue
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must be an object")
            nested_unknown = set(value) - {f.name for f in fields(nested_cls)}
            if nested_unknown:
                raise ValueError(f"unknown keys under {key!r}: {sorted(nested_unknown)}")
            kwargs[key] = nested_cls(**value)
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
