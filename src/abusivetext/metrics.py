"""Evaluation arithmetic: confusion matrices, per-class precision/recall/F1,
macro-F1, and the probability conventions and training report both arms share.

Conventions are fixed so reports are reproducible: the Abusive class (1) is
the positive class, macro-F1 is the unweighted mean of the two per-class F1
values, any 0/0 ratio is defined as 0, and a probability of at least 0.5
decides Abusive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .checks import check_fields
from .corpus import Label
from .errors import EmptyInput, LengthMismatch

# Probabilities stay strictly inside (0, 1): the correctly-rounded sigmoid
# saturates to exact 0.0/1.0 beyond |z| ~ 37, which would poison downstream
# log-likelihoods, so saturated values are nudged to the nearest open-interval
# float64 (the smallest subnormal and 1 - 2^-53).
PROB_FLOOR = 5e-324
PROB_CEIL = math.nextafter(1.0, 0.0)

DECISION_THRESHOLD = 0.5


def decide(p: float) -> Label:
    """Abusive iff p >= DECISION_THRESHOLD; a tie goes to Abusive."""
    return Label.ABUSIVE if p >= DECISION_THRESHOLD else Label.NON_ABUSIVE


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts. tp/fn count gold-Abusive rows, fp/tn gold-Non-Abusive rows."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fn", "fp", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassReport:
    per_class: dict[Label, PRF]
    macro_f1: float
    accuracy: float


def confusion(gold: Sequence[Label], pred: Sequence[Label]) -> ConfusionMatrix:
    """Count the four quadrants of gold vs predicted binary labels."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"gold has {len(gold)} labels, pred has {len(pred)}")
    if not gold:
        raise EmptyInput("cannot build a confusion matrix from empty inputs")
    tp = fn = fp = tn = 0
    for g, p in zip(gold, pred):
        if g == Label.ABUSIVE:
            if p == Label.ABUSIVE:
                tp += 1
            else:
                fn += 1
        else:
            if p == Label.ABUSIVE:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _prf(hits: int, false_alarms: int, misses: int) -> PRF:
    precision = _safe_div(hits, hits + false_alarms)
    recall = _safe_div(hits, hits + misses)
    return PRF(precision, recall, _safe_div(2 * precision * recall, precision + recall))


def per_class_prf(cm: ConfusionMatrix) -> dict[Label, PRF]:
    """Precision/recall/F1 for each class, with the 0/0 -> 0 convention."""
    return {
        Label.ABUSIVE: _prf(cm.tp, cm.fp, cm.fn),
        Label.NON_ABUSIVE: _prf(cm.tn, cm.fn, cm.fp),
    }


def class_report(cm: ConfusionMatrix) -> ClassReport:
    """Full report: per-class PRF, macro-F1, and accuracy."""
    prf = per_class_prf(cm)
    return ClassReport(
        per_class=prf,
        macro_f1=(prf[Label.ABUSIVE].f1 + prf[Label.NON_ABUSIVE].f1) / 2.0,
        accuracy=_safe_div(cm.tp + cm.tn, cm.total),
    )


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the two per-class F1 values."""
    return class_report(cm).macro_f1


def decided_macro_f1(gold: Sequence[Label], probs: Sequence[float]) -> float:
    """Macro-F1 of the labels the probabilities decide, against gold."""
    return macro_f1(confusion(gold, [decide(p) for p in probs]))


@dataclass
class TrainReport:
    """Each epoch's full-data train loss and dev macro-F1 (empty without dev)."""

    epoch_train_losses: list[float] = field(default_factory=list)
    epoch_dev_macro_f1: list[float] = field(default_factory=list)

    def __post_init__(self):
        check_fields(self)
        if self.epoch_dev_macro_f1 and len(self.epoch_dev_macro_f1) != len(self.epoch_train_losses):
            raise ValueError("epoch_dev_macro_f1 must be empty or hold one value per epoch")
