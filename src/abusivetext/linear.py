"""Binary logistic regression over the CSR rows of TF-IDF vectors, and the
one array sigmoid both model arms use (kept out of metrics, which loads no
numpy). Trained from scratch with mini-batch gradient descent: zero init,
constant step size, seeded per-epoch shuffling, L2 penalty on the weights
(bias unpenalized). Everything runs in 64-bit arithmetic so the analytic
gradients can be checked against finite differences at tight tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

import numpy as np

from .checks import check_fields
from .configs import TrainConfigLR
from .corpus import Label
from .errors import DimensionMismatch, EmptyData, LengthMismatch, TrainingDiverged
from .metrics import PROB_CEIL, PROB_FLOOR, TrainReport, decided_macro_f1
from .vectorizer import Rows, SparseVector


def sigmoid(z) -> np.ndarray:
    """1 / (1 + e^-z) elementwise, in the branch form that never overflows;
    every result is strictly inside (0, 1) for finite z. Each element is
    computed on its own, so it does not depend on the others."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    p = np.where(z >= 0.0, 1.0 / d, e / d)
    return np.clip(p, PROB_FLOOR, PROB_CEIL)


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        check_fields(self)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise DimensionMismatch(f"weights have shape {self.weights.shape}, expected 1-D")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("model weights must be finite")

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearModel):
            return NotImplemented
        return self.bias == other.bias and np.array_equal(self.weights, other.weights)


def _add_up(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[k] += v for each (k, v) in input order, into float zeros of length
    size; each slot's terms are added one by one, left to right."""
    out = np.bincount(keys, weights=values, minlength=size)
    # bincount gives integer zeros when there are no entries at all.
    return out.astype(np.float64, copy=False)


def _total(values: np.ndarray) -> float:
    """The values added one by one, left to right, from 0.0; sum() and
    np.sum do not promise that order."""
    return float(_add_up(np.zeros(len(values), dtype=np.intp), values, 1)[0])


def _scores(rows: Rows, weights: np.ndarray, bias: float) -> np.ndarray:
    """bias + w . x per row, each row's products added in entry order, so a
    score never depends on the rows scored with it."""
    products = weights[rows.indices] * rows.data
    return bias + _add_up(rows.row_of_entry, products, rows.n_rows)


def _gradient(
    weights: np.ndarray, bias: float, rows: Rows, labels: np.ndarray, l2_penalty: float
) -> tuple[np.ndarray, float]:
    errs = sigmoid(_scores(rows, weights, bias)) - labels
    grad_w = _add_up(rows.indices, errs[rows.row_of_entry] * rows.data, weights.size)
    grad_w /= rows.n_rows
    grad_b = _total(errs) / rows.n_rows
    if l2_penalty:
        grad_w += l2_penalty * weights
    return grad_w, grad_b


def _loss(
    weights: np.ndarray, bias: float, rows: Rows, labels: np.ndarray, l2_penalty: float
) -> float:
    z = _scores(rows, weights, bias)
    # softplus(z) = log(1 + e^z), in a form that never overflows.
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return (
        _total(softplus - labels * z) / rows.n_rows
        + 0.5 * l2_penalty * _total(weights * weights)
    )


def _split(
    data: Sequence[tuple[SparseVector, Label]], dimension: int
) -> tuple[Rows, np.ndarray]:
    return Rows.pack([x for x, _ in data], dimension), np.array([y for _, y in data], float)


def predict_probas(model: LinearModel, rows: Rows) -> list[float]:
    """sigmoid(w . x + b) for each row, scored in one kernel call; a row's
    probability does not depend on the rows scored with it."""
    if rows.dimension != model.dimension:
        raise DimensionMismatch(
            f"row dimension {rows.dimension} != model dimension {model.dimension}"
        )
    return sigmoid(_scores(rows, model.weights, model.bias)).tolist()


def predict_proba(model: LinearModel, x: SparseVector) -> float:
    """sigmoid(w . x + b)."""
    return predict_probas(model, Rows.pack([x], model.dimension))[0]


def batch_gradient(
    weights: np.ndarray,
    bias: float,
    batch: Sequence[tuple[SparseVector, Label]],
    l2_penalty: float,
) -> tuple[np.ndarray, float]:
    """Gradient of mean cross-entropy + (l2/2)||w||^2 over one batch.

    (1/|B|) sum (sigmoid(w.x + b) - y) x  plus l2_penalty * w; the bias
    gradient omits the penalty term.
    """
    return _gradient(weights, bias, *_split(batch, weights.size), l2_penalty)


def dataset_loss(
    weights: np.ndarray,
    bias: float,
    data: Sequence[tuple[SparseVector, Label]],
    l2_penalty: float,
) -> float:
    """Mean binary cross-entropy plus the L2 penalty, evaluated stably via
    softplus so saturated probabilities do not produce infinities."""
    return _loss(weights, bias, *_split(data, weights.size), l2_penalty)


def train_lr(
    rows: Rows,
    labels: Sequence[Label],
    config: TrainConfigLR = TrainConfigLR(),
    seed: int = 0,
    dev: tuple[Rows, Sequence[Label]] | None = None,
) -> tuple[LinearModel, TrainReport]:
    """Mini-batch gradient descent from zero initialization.

    Every epoch shuffles the rows with one Random(seed), so shuffling is
    driven solely by seed, and identical data + config + seed yield a
    bit-identical model. The report carries the full-data loss after each
    epoch and, given dev rows and labels, the dev macro-F1, which leaves
    the model and the shuffling as they were. Raises TrainingDiverged at
    the first epoch whose loss is not finite.
    """
    if rows.n_rows == 0:
        raise EmptyData("training data is empty")
    if len(labels) != rows.n_rows:
        raise LengthMismatch(f"{rows.n_rows} rows but {len(labels)} labels")

    weights = np.zeros(rows.dimension, dtype=np.float64)
    bias = 0.0
    report = TrainReport()
    targets = np.array(labels, dtype=np.float64)
    order = list(range(rows.n_rows))
    rng = Random(seed)
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            pick = order[start : start + config.batch_size]
            grad_w, grad_b = _gradient(
                weights, bias, rows.take(pick), targets[pick], config.l2_penalty
            )
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
        loss = _loss(weights, bias, rows, targets, config.l2_penalty)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"lr training diverged at epoch {epoch}: train loss {loss}"
            )
        report.epoch_train_losses.append(loss)
        if dev is not None:
            dev_probs = predict_probas(LinearModel(weights=weights, bias=bias), dev[0])
            report.epoch_dev_macro_f1.append(decided_macro_f1(dev[1], dev_probs))
    return LinearModel(weights=weights, bias=bias), report
