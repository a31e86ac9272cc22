"""Binary abusive-comment classification toolkit for code-mixed social-media
text: TF-IDF + logistic regression and a desk-scale transformer encoder, with
exact macro-F1 evaluation arithmetic and a reproducible CLI."""

from .corpus import (
    DatasetStats,
    Label,
    LabeledExample,
    compute_stats,
    map_label,
    parse_dataset,
    synth_corpus,
)
from .metrics import ConfusionMatrix, class_report, confusion, macro_f1, per_class_prf
from .textprep import CleanPolicy, preprocess

__version__ = "0.1.0"

__all__ = [
    "CleanPolicy",
    "ConfusionMatrix",
    "DatasetStats",
    "Label",
    "LabeledExample",
    "class_report",
    "compute_stats",
    "confusion",
    "macro_f1",
    "map_label",
    "parse_dataset",
    "per_class_prf",
    "preprocess",
    "synth_corpus",
    "__version__",
]
