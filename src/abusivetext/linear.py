"""Binary logistic regression over the CSR rows of TF-IDF vectors, and what
both model arms share (kept out of metrics, which loads no numpy): the array
sigmoid and ``descend``, the one mini-batch gradient descent loop. LR trains
``[w, b]``, one flat vector, from zeros: constant step size, seeded per-epoch
shuffling, L2 penalty on w only. All 64-bit, so the analytic gradients can be
checked against finite differences at tight tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

import numpy as np

from .checks import check_fields
from .configs import TrainConfig, TrainConfigLR
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
    size; each slot's terms are added one by one, left to right from 0.0,
    an order that sum() and np.sum do not promise."""
    out = np.bincount(keys, weights=values, minlength=size)
    # bincount gives integer zeros when there are no entries at all.
    return out.astype(np.float64, copy=False)


def _scores(rows: Rows, weights: np.ndarray, bias: float) -> np.ndarray:
    """bias + w . x per row, each row's products added in entry order, so a
    score never depends on the rows scored with it."""
    products = weights[rows.indices] * rows.data
    return bias + _add_up(rows.row_of_entry, products, rows.n_rows)


def _gradient(theta: np.ndarray, rows: Rows, labels: np.ndarray, l2_penalty: float) -> np.ndarray:
    """[grad_w, grad_b] at theta = [w, b]; the bias bin, which the first
    bincount leaves at 0.0, is the errors added left to right."""
    weights = theta[:-1]
    errs = sigmoid(_scores(rows, weights, theta[-1])) - labels
    grad = _add_up(rows.indices, errs[rows.row_of_entry] * rows.data, theta.size)
    grad[-1] = _add_up(np.zeros(rows.n_rows, dtype=np.intp), errs, 1)[0]
    grad /= rows.n_rows
    if l2_penalty:
        grad[:-1] += l2_penalty * weights
    return grad


def _loss(theta: np.ndarray, rows: Rows, labels: np.ndarray, l2_penalty: float) -> float:
    weights = theta[:-1]
    z = _scores(rows, weights, theta[-1])
    # softplus(z) = log(1 + e^z), in a form that never overflows.
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    # One bincount: bin 0 adds the row losses, bin 1 the squared weights.
    data, squares = _add_up(
        np.repeat([0, 1], [rows.n_rows, weights.size]),
        np.concatenate([softplus - labels * z, weights * weights]), 2,
    )
    return float(data / rows.n_rows + 0.5 * l2_penalty * squares)


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
    grad = _gradient(np.append(weights, bias), *_split(batch, weights.size), l2_penalty)
    return grad[:-1], float(grad[-1])


def dataset_loss(
    weights: np.ndarray,
    bias: float,
    data: Sequence[tuple[SparseVector, Label]],
    l2_penalty: float,
) -> float:
    """Mean binary cross-entropy plus the L2 penalty, evaluated stably via
    softplus so saturated probabilities do not produce infinities."""
    return _loss(np.append(weights, bias), *_split(data, weights.size), l2_penalty)


@np.errstate(over="ignore", invalid="ignore")
def descend(
    theta: np.ndarray, config: TrainConfig, arm: str,
    shuffled: Callable[[], Sequence[int]], gradient: Callable[[Sequence[int]], np.ndarray],
    train_loss: Callable[[], float],
    dev: tuple[Sequence[Label], Callable[[], Sequence[float]]] | None = None,
) -> TrainReport:
    """Mini-batch gradient descent on the flat vector theta, in place: each
    epoch steps theta -= learning_rate * gradient(batch) over shuffled()'s
    batches, then records train_loss() and, given dev (gold, a function of
    the dev probabilities), the dev macro-F1. A non-finite loss raises
    TrainingDiverged, the one report of divergence: numpy's overflow and
    invalid-value warnings are off."""
    report = TrainReport()
    for epoch in range(1, config.epochs + 1):
        order = shuffled()
        for start in range(0, len(order), config.batch_size):
            theta -= config.learning_rate * gradient(order[start : start + config.batch_size])
        loss = train_loss()
        if not math.isfinite(loss):
            raise TrainingDiverged(f"{arm} training diverged at epoch {epoch}: train loss {loss}")
        report.epoch_train_losses.append(loss)
        if dev is not None:
            report.epoch_dev_macro_f1.append(decided_macro_f1(dev[0], dev[1]()))
    return report


def train_lr(
    rows: Rows,
    labels: Sequence[Label],
    config: TrainConfigLR = TrainConfigLR(),
    seed: int = 0,
    dev: tuple[Rows, Sequence[Label]] | None = None,
) -> tuple[LinearModel, TrainReport]:
    """Mini-batch gradient descent (descend) from zero initialization.

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

    theta = np.zeros(rows.dimension + 1, dtype=np.float64)
    targets = np.array(labels, dtype=np.float64)
    order = list(range(rows.n_rows))
    rng = Random(seed)

    def shuffled() -> list[int]:
        rng.shuffle(order)
        return order

    def model() -> LinearModel:
        return LinearModel(weights=theta[:-1], bias=float(theta[-1]))

    report = descend(
        theta, config, "lr", shuffled,
        lambda pick: _gradient(theta, rows.take(pick), targets[pick], config.l2_penalty),
        lambda: _loss(theta, rows, targets, config.l2_penalty),
        None if dev is None else (dev[1], lambda: predict_probas(model(), dev[0])),
    )
    return model(), report
