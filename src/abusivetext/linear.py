"""Binary logistic regression over sparse TF-IDF vectors.

Trained from scratch with mini-batch gradient descent: zero initialization,
constant step size, seeded per-epoch shuffling, L2 penalty on the weights
(bias unpenalized). Everything runs in 64-bit arithmetic so the analytic
gradients can be checked against finite differences at tight tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from typing import NamedTuple, Sequence

import numpy as np

from .checks import check_fields
from .corpus import Label
from .errors import DimensionMismatch, EmptyData, TrainingDiverged
from .metrics import PROB_CEIL, PROB_FLOOR
from .vectorizer import SparseVector


def sigmoid(z: float) -> float:
    """1 / (1 + e^-z) in the branch form that never overflows; the result is
    strictly inside (0, 1) for every finite z."""
    if z >= 0.0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        p = e / (1.0 + e)
    return min(max(p, PROB_FLOOR), PROB_CEIL)


def _softplus(z: float) -> float:
    # log(1 + e^z) without overflow; used for the stable cross-entropy.
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    dimension: int

    def __post_init__(self):
        check_fields(self)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.dimension,):
            raise DimensionMismatch(
                f"weights have shape {self.weights.shape}, expected ({self.dimension},)"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("model weights must be finite")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearModel):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.bias == other.bias
            and np.array_equal(self.weights, other.weights)
        )


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


@dataclass
class TrainReportLR:
    epoch_losses: list[float] = field(default_factory=list)
    single_class: bool = False

    def __post_init__(self):
        check_fields(self)


def _add_up(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[k] += v for each (k, v) in input order, into float zeros of length
    size; each slot's terms are added one by one, left to right."""
    out = np.bincount(keys, weights=values, minlength=size)
    # bincount gives integer zeros when there are no entries at all.
    return out.astype(np.float64, copy=False)


class _Rows(NamedTuple):
    """Sparse rows in CSR form: row r holds entries indptr[r]:indptr[r + 1]
    of indices/data, in their SparseVector order; row_of_entry names the
    row of each entry."""

    indptr: np.ndarray
    row_of_entry: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def pack(cls, vectors: Sequence[SparseVector]) -> "_Rows":
        lengths = [len(x.entries) for x in vectors]
        n = len(vectors)
        return cls(
            np.fromiter(accumulate(lengths, initial=0), dtype=np.intp, count=n + 1),
            np.repeat(np.arange(n), lengths),
            np.fromiter((i for x in vectors for i, _ in x.entries), dtype=np.intp),
            np.fromiter((w for x in vectors for _, w in x.entries), dtype=np.float64),
        )

    def take(self, rows: Sequence[int]) -> "_Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        row_of_entry = np.repeat(np.arange(len(rows)), lengths)
        picked = np.arange(indptr[-1]) + (starts - indptr[:-1])[row_of_entry]
        return _Rows(indptr, row_of_entry, self.indices[picked], self.data[picked])

    def scores(self, weights: np.ndarray, bias: float) -> list[float]:
        """bias + w . x per row, each row's products added in entry order,
        so a score never depends on how the interpreter's sum() rounds."""
        products = weights[self.indices] * self.data
        dots = _add_up(self.row_of_entry, products, len(self.indptr) - 1)
        return (bias + dots).tolist()


def _gradient(
    weights: np.ndarray,
    bias: float,
    rows: _Rows,
    labels: Sequence[float],
    l2_penalty: float,
) -> tuple[np.ndarray, float]:
    errs = [
        sigmoid(z) - y for z, y in zip(rows.scores(weights, bias), labels)
    ]
    # Explicit += keeps the left-to-right order of the per-entry loop, which
    # sum() and np.sum do not promise.
    grad_b = 0.0
    for err in errs:
        grad_b += err
    err_of_entry = np.array(errs)[rows.row_of_entry]
    grad_w = _add_up(rows.indices, err_of_entry * rows.data, weights.size)
    grad_w /= len(errs)
    grad_b /= len(errs)
    if l2_penalty:
        grad_w += l2_penalty * weights
    return grad_w, grad_b


def _loss(
    weights: np.ndarray,
    bias: float,
    rows: _Rows,
    labels: Sequence[float],
    l2_penalty: float,
) -> float:
    total = 0.0
    for z, y in zip(rows.scores(weights, bias), labels):
        total += _softplus(z) - y * z
    return total / len(labels) + 0.5 * l2_penalty * float(weights @ weights)


def _split(
    data: Sequence[tuple[SparseVector, Label]]
) -> tuple[_Rows, list[float]]:
    return _Rows.pack([x for x, _ in data]), [float(y) for _, y in data]


def predict_probas(
    model: LinearModel, vectors: Sequence[SparseVector]
) -> list[float]:
    """sigmoid(w . x + b) for each vector, scored in one kernel call; each
    row's products are added in entry order, so a row's probability does
    not depend on the rows scored with it."""
    for x in vectors:
        if x.dimension != model.dimension:
            raise DimensionMismatch(
                f"vector dimension {x.dimension} != model dimension {model.dimension}"
            )
    scores = _Rows.pack(vectors).scores(model.weights, model.bias)
    return [sigmoid(z) for z in scores]


def predict_proba(model: LinearModel, x: SparseVector) -> float:
    """sigmoid(w . x + b)."""
    return predict_probas(model, [x])[0]


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
    return _gradient(weights, bias, *_split(batch), l2_penalty)


def dataset_loss(
    weights: np.ndarray,
    bias: float,
    data: Sequence[tuple[SparseVector, Label]],
    l2_penalty: float,
) -> float:
    """Mean binary cross-entropy plus the L2 penalty, evaluated stably via
    softplus so saturated probabilities do not produce infinities."""
    return _loss(weights, bias, *_split(data), l2_penalty)


def train_lr(
    data: Sequence[tuple[SparseVector, Label]],
    config: TrainConfigLR = TrainConfigLR(),
) -> tuple[LinearModel, TrainReportLR]:
    """Mini-batch gradient descent from zero initialization.

    Shuffling is driven solely by config.seed, so identical data + config
    yield a bit-identical model. The report carries the full-data loss after
    each epoch and flags degenerate single-class training data. Raises
    TrainingDiverged at the first epoch whose loss is not finite.
    """
    if len(data) == 0:
        raise EmptyData("training data is empty")
    dimension = data[0][0].dimension
    for x, _ in data:
        if x.dimension != dimension:
            raise DimensionMismatch(
                f"inconsistent vector dimensions: {x.dimension} != {dimension}"
            )

    weights = np.zeros(dimension, dtype=np.float64)
    bias = 0.0
    report = TrainReportLR(single_class=len({y for _, y in data}) < 2)
    rows, labels = _split(data)
    order = list(range(len(data)))
    rng = Random(config.seed)
    for epoch in range(1, config.epochs + 1):
        if config.shuffle:
            rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            pick = order[start : start + config.batch_size]
            grad_w, grad_b = _gradient(
                weights, bias, rows.take(pick), [labels[i] for i in pick],
                config.l2_penalty,
            )
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
        loss = _loss(weights, bias, rows, labels, config.l2_penalty)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"lr training diverged at epoch {epoch}: train loss {loss}"
            )
        report.epoch_losses.append(loss)
    return LinearModel(weights=weights, bias=bias, dimension=dimension), report
