"""The two model kinds and the configs of their arms, kept free of numpy.

``cli`` builds its run config from these without importing the array
modules, so the commands that never train or predict start without numpy.
``vectorizer``, ``linear`` and ``encoder`` import their configs from here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .checks import check_fields

# Model kind names: bundle payload KINDs and the --model-kind choices.
TFIDF_LR = "tfidf_lr"
MICRO_ENCODER = "micro_encoder"


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
class TrainConfigLR:
    """Training hyperparameters. None of these come from any published
    recipe; they are toolkit defaults chosen for reproducible desk-scale runs."""

    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    l2_penalty: float = 1e-4
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check_fields(self)
        # lr = 0 is allowed: "no update" runs are useful as a baseline check.
        for name in ("learning_rate", "l2_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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
class TrainConfigEnc:
    """Fine-tuning-style regime: fixed epoch count, per-epoch dev evaluation,
    no early stopping. The 1e-5 default step size is far too small for
    from-scratch training; raise it explicitly for desk-scale runs."""

    learning_rate: float = 1e-5
    epochs: int = 5
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
