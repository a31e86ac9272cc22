"""Whitespace tokenization and TF-IDF feature extraction.

The variant is pinned so fitted models are fully reproducible: raw term
counts for tf, smoothed idf = ln((1 + N) / (1 + df)) + 1, and L2 document
normalization. Vocabulary indices are assigned in lexicographic token order,
so serialized models are byte-stable across runs. Documents are transformed
into one CSR matrix (``Rows``), the only form in which TF-IDF rows reach the
logistic regression.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .checks import check_fields
from .configs import TfIdfConfig
from .errors import DimensionMismatch, EmptyCorpus

# Joins the words of an n-gram. tokenize splits words on it as on
# whitespace, so no word holds it and joined n-grams can never collide with a
# literal token. Cleaning keeps it when strip_specials is off.
NGRAM_SEPARATOR = "␟"


@dataclass
class TfIdfModel:
    """A fitted vocabulary in its bundle layout: ``tokens`` in strictly
    ascending (index) order, each token's document frequency in one int64
    array, and the corpus size. ``idf`` is derived from the last two and
    ``token_to_index`` from ``tokens`` on construction; neither is compared
    nor stored."""

    tokens: list[str]
    document_frequency: np.ndarray
    n_documents: int
    config: TfIdfConfig = field(default_factory=TfIdfConfig)
    idf: np.ndarray = field(init=False, repr=False)
    token_to_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        if self.n_documents < 1:
            raise ValueError("n_documents must be >= 1")
        self.token_to_index = {token: i for i, token in enumerate(self.tokens)}
        # The distinct tokens in sorted order: equal only if strictly ascending.
        if self.tokens != sorted(self.token_to_index):
            raise ValueError("vocabulary tokens must be strictly ascending")
        dfs, shape = self.document_frequency, (len(self.tokens),)
        if not (isinstance(dfs, np.ndarray) and dfs.dtype == np.int64 and dfs.shape == shape):
            raise ValueError(f"document frequencies must be an int64 array of shape {shape}")
        if dfs.size and not 1 <= int(dfs.min()) <= int(dfs.max()) <= self.n_documents:
            raise ValueError(f"document frequencies must lie in 1..{self.n_documents}")
        self.idf = smoothed_idf(dfs, self.n_documents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TfIdfModel):
            return NotImplemented
        return (
            self.tokens == other.tokens
            and np.array_equal(self.document_frequency, other.document_frequency)
            and self.n_documents == other.n_documents
            and self.config == other.config
        )

    @property
    def dimension(self) -> int:
        return len(self.tokens)


def smoothed_idf(document_frequency: np.ndarray, n_documents: int) -> np.ndarray:
    """fit's ln((1 + N) / (1 + df)) + 1 per token, as float64: Python's math.log
    once per distinct df. Raises OverflowError when N is past the float range."""
    distinct, inverse = np.unique(document_frequency, return_inverse=True)
    weights = [math.log((1 + n_documents) / (1 + df)) + 1.0 for df in distinct.tolist()]
    return np.array(weights, dtype=np.float64)[inverse]


@dataclass(frozen=True)
class SparseVector:
    """Sparse document vector: (index, weight) entries with strictly
    increasing indices and no stored zeros."""

    entries: tuple[tuple[int, float], ...]
    dimension: int

    def __post_init__(self):
        previous = -1
        for index, weight in self.entries:
            if not previous < index < self.dimension:
                raise ValueError("entry indices must strictly increase and stay < dimension")
            if weight == 0.0:
                raise ValueError("zero weights must not be stored")
            previous = index


def tokenize(text: str, ngram_max: int = 1) -> list[str]:
    """Split on whitespace and NGRAM_SEPARATOR, and emit word n-grams up to
    ngram_max.

    Unigrams come first, then bigrams, and so on; n-gram words are joined
    with NGRAM_SEPARATOR. Empty text yields an empty list.
    """
    words = text.replace(NGRAM_SEPARATOR, " ").split()
    tokens = list(words)
    # No n-gram is longer than the text, whatever ngram_max says. zip over
    # the n shifted copies yields each window; the joins run in C.
    for n in range(2, min(ngram_max, len(words)) + 1):
        tokens += map(NGRAM_SEPARATOR.join, zip(*(words[i:] for i in range(n))))
    return tokens


def fit(corpus: Sequence[str], config: TfIdfConfig = TfIdfConfig()) -> TfIdfModel:
    """Fit vocabulary and idf weights on a corpus of (preprocessed) documents.

    Tokens with df < min_df are dropped; when max_vocab caps the size, the
    survivors are the top tokens by (df descending, token ascending). The
    smoothed idf keeps every weight finite and positive even at df = N.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot fit TF-IDF on an empty corpus")
    n_documents = len(corpus)
    document_frequency: Counter[str] = Counter()
    for document in corpus:
        document_frequency.update(set(tokenize(document, config.ngram_max)))

    kept = [t for t, df in document_frequency.items() if df >= config.min_df]
    if config.max_vocab is not None and len(kept) > config.max_vocab:
        kept.sort(key=lambda t: (-document_frequency[t], t))
        kept = kept[: config.max_vocab]
    kept.sort()

    return TfIdfModel(
        tokens=kept,
        document_frequency=np.array([document_frequency[t] for t in kept], dtype=np.int64),
        n_documents=n_documents,
        config=config,
    )


class Rows(NamedTuple):
    """Sparse rows in CSR form: row r holds entries indptr[r]:indptr[r + 1] of
    indices/data, indices strictly increasing and below dimension, no stored
    zeros; row_of_entry names the row of each entry."""

    indptr: np.ndarray
    row_of_entry: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dimension: int

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def of(cls, lengths, indices, data, dimension: int) -> "Rows":
        """Rows of the given lengths over entries listed row after row."""
        indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        return cls(
            indptr, np.repeat(np.arange(len(lengths)), lengths),
            np.asarray(indices, dtype=np.intp), np.asarray(data, dtype=np.float64),
            dimension,
        )

    @classmethod
    def pack(cls, vectors: Sequence[SparseVector], dimension: int) -> "Rows":
        """The vectors as rows, in order. Raises DimensionMismatch unless
        every vector has the given dimension."""
        for x in vectors:
            if x.dimension != dimension:
                raise DimensionMismatch(f"vector dimension {x.dimension} != {dimension}")
        return cls.of(
            np.array([len(x.entries) for x in vectors], dtype=np.intp),
            [i for x in vectors for i, _ in x.entries],
            [w for x in vectors for _, w in x.entries],
            dimension,
        )

    def take(self, rows: Sequence[int]) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        out = Rows.of(self.indptr[rows + 1] - starts, [], [], self.dimension)
        picked = np.arange(out.indptr[-1]) + (starts - out.indptr[:-1])[out.row_of_entry]
        return out._replace(indices=self.indices[picked], data=self.data[picked])


def transform_rows(model: TfIdfModel, texts: Sequence[str]) -> Rows:
    """One row per text: in-vocabulary tokens weighted by raw count x idf,
    out-of-vocabulary tokens dropped. Rows are L2-normalized when configured,
    each norm summed in index order; an all-OOV text is an empty row."""
    lookup = model.token_to_index.get
    lengths, found = [], []
    for text in texts:
        hits = [i for i in map(lookup, tokenize(text, model.config.ngram_max)) if i is not None]
        found += hits
        lengths.append(len(hits))
    # One key per (row, index) hit: sorted and counted, they are the entries
    # in CSR order with their raw counts.
    dimension = model.dimension
    row_of_hit = np.repeat(np.arange(len(texts)), lengths)
    keys, counts = np.unique(row_of_hit * dimension + np.array(found, dtype=np.intp),
                             return_counts=True)
    row_of_entry, indices = np.divmod(keys, dimension)
    rows = Rows.of(np.bincount(row_of_entry, minlength=len(texts)), indices, counts, dimension)
    data = rows.data * model.idf[rows.indices]
    if model.config.l2_normalize:
        # bincount adds each row's squares one by one, in entry order.
        squares = np.bincount(rows.row_of_entry, weights=data * data, minlength=rows.n_rows)
        data = data / np.sqrt(squares)[rows.row_of_entry]
    return rows._replace(data=data)


def transform(model: TfIdfModel, text: str) -> SparseVector:
    """The one row transform_rows gives for text, as a SparseVector."""
    row = transform_rows(model, [text])
    return SparseVector(
        entries=tuple(zip(row.indices.tolist(), row.data.tolist())),
        dimension=model.dimension,
    )
