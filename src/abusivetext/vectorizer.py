"""Whitespace tokenization and TF-IDF feature extraction.

The variant is pinned so fitted models are fully reproducible: raw term
counts for tf, smoothed idf = ln((1 + N) / (1 + df)) + 1, and L2 document
normalization. Vocabulary indices are assigned in lexicographic token order,
so serialized models are byte-stable across runs.

A fitted vocabulary has one form, the one the bundle stores: a word table
(the unigrams, then the inner words that occur only inside kept n-grams),
each n-gram as the 1-based table positions of its words, and the document
frequencies (see TfIdfModel). Its one constructor checks that form and
derives the joined token list and an integer matching index from it once;
fit writes the form of the joined-string tokens it keeps. transform_rows
maps each word to its table position and finds unigram and n-gram hits by
integer keys, building no n-gram string. Documents are transformed into one
CSR matrix (``Rows``), the only form in which TF-IDF rows reach the logistic
regression.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat, zip_longest
from typing import NamedTuple, Sequence

import numpy as np

from .checks import check_fields
from .configs import TfIdfConfig
from .errors import DimensionMismatch, EmptyCorpus

# Joins the words of an n-gram. tokenize splits words on it as on
# whitespace, so no word holds it and joined n-grams can never collide with a
# literal token. Cleaning keeps it when strip_specials is off.
NGRAM_SEPARATOR = "␟"


def _words_of(text: str) -> list[str]:
    """The words of a text, split on whitespace and NGRAM_SEPARATOR."""
    return text.replace(NGRAM_SEPARATOR, " ").split()


def _ascending(items: list) -> bool:
    """Whether items strictly ascend."""
    return all(map(operator.lt, items, items[1:]))


class _NgramIndex(NamedTuple):
    """The n-grams of one length n as integer keys. A key starts as the first
    word's table position, and each next word folds it into ``key * base +
    position``. Every fold but the last is replaced by its 1-based rank among
    ``prefixes[k]``, the sorted folds of the n-grams' first k + 2 words, or
    by 0 when no n-gram starts so; so no key outgrows int64 whatever n is
    (twelve positions in a table of 40 words would need 41**12). ``keys``
    are the n-grams' last folds, sorted, and ``targets`` their token
    indices."""

    base: int
    prefixes: list[np.ndarray]
    keys: np.ndarray
    targets: np.ndarray

    @classmethod
    def of(cls, columns: np.ndarray, targets: np.ndarray, base: int) -> "_NgramIndex":
        """The index of the n-grams whose word positions are the columns of
        the (n, m) array ``columns``, with token indices ``targets``."""
        prefixes, key = [], columns[0]
        for positions in columns[1:-1]:
            table, rank = np.unique(key * base + positions, return_inverse=True)
            prefixes.append(table)
            key = rank + 1
        final = key * base + columns[-1]
        order = np.argsort(final)
        return cls(base, prefixes, final[order], targets[order])

    def match(self, ids: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(which windows hit, the token index of each hit) for the windows
        of n word positions in ``ids`` that begin at ``starts``."""
        key = ids[starts]
        for k, table in enumerate(self.prefixes, start=1):
            at, found = _lookup(table, key * self.base + ids[starts + k])
            key = np.where(found, at + 1, 0)
        at, found = _lookup(self.keys, key * self.base + ids[starts + len(self.prefixes) + 1])
        return found, self.targets[at[found]]


def _lookup(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's position in the sorted, non-empty table, clipped to it,
    and whether the key is there. The keys are searched in sorted order:
    for 27,000 keys in a table of 9,500, argsort and search took a third of
    the time of the search in text order."""
    order = np.argsort(keys)
    at = np.empty(len(keys), dtype=np.intp)
    at[order] = np.minimum(np.searchsorted(table, keys[order]), len(table) - 1)
    return at, table[at] == keys


@dataclass
class TfIdfModel:
    """A fitted vocabulary in its stored word-id form.

    ``unigrams`` are the one-word tokens and ``inner_words`` the words that
    occur only inside kept n-grams (a max_vocab cut can drop a word and keep
    an n-gram using it), each strictly ascending; in that order they are the
    word table, whose words have positions 1, 2, .... ``ngram_positions`` is
    one int64 array of shape (longest n-gram, n-grams): column j holds the
    table positions of the words of the j-th n-gram in ascending
    joined-string order, then 0 to the end. ``document_frequency`` holds
    each token's df, in token (index) order, as one int64 array.

    The constructor, the one way fit and load build a model, refuses any
    other form, so that every vocabulary has exactly one: a word that is
    empty or holds whitespace or NGRAM_SEPARATOR, unsorted or repeated
    words, a word in both lists, an inner word no n-gram uses, a position
    past the table, an n-gram of fewer than two words or longer than
    ``config.ngram_max``, a 0 before a word, an all-zero last row, and
    n-grams that do not strictly ascend as joined strings. From the form it
    derives, once, ``tokens`` (unigrams and joined n-grams in ascending,
    that is index, order), the float64 ``idf`` and the integer index
    transform_rows matches with; none of them is compared or stored."""

    unigrams: list[str]
    inner_words: list[str]
    ngram_positions: np.ndarray
    document_frequency: np.ndarray
    n_documents: int
    config: TfIdfConfig = field(default_factory=TfIdfConfig)

    def __post_init__(self):
        check_fields(self)
        if self.n_documents < 1:
            raise ValueError("n_documents must be >= 1")
        unigrams, positions = self.unigrams, self.ngram_positions
        words = unigrams + self.inner_words
        if _words_of(" ".join(words)) != words:
            raise ValueError(
                f"vocabulary words must be non-empty and hold no whitespace or {NGRAM_SEPARATOR}"
            )
        if not (_ascending(unigrams) and _ascending(self.inner_words)):
            raise ValueError("unigrams and inner words must each be strictly ascending")
        if not set(unigrams).isdisjoint(self.inner_words):
            raise ValueError("no word may be both a unigram and an inner word")
        if not (isinstance(positions, np.ndarray) and positions.dtype == np.int64
                and positions.ndim == 2):
            raise ValueError("n-gram positions must be a 2-d int64 array")
        longest, n_ngrams = positions.shape
        if positions.size and not 0 <= int(positions.min()) <= int(positions.max()) <= len(words):
            raise ValueError(f"n-gram positions must lie in 0..{len(words)}")
        present = positions != 0
        if n_ngrams and (longest < 2 or not present[1].all()):
            raise ValueError("every n-gram must have at least two words")
        if longest and not present[-1].any():
            raise ValueError("the last row of n-gram positions must hold a word")
        if (present[1:] & ~present[:-1]).any():
            raise ValueError("an n-gram position must not follow a 0")
        if longest > self.config.ngram_max:
            raise ValueError(
                f"n-grams of {longest} words exceed ngram_max {self.config.ngram_max}"
            )
        used = np.bincount(positions.reshape(-1), minlength=len(words) + 1)
        if not used[len(unigrams) + 1 :].all():
            raise ValueError("every inner word must be used by an n-gram")
        # Position 0 reads as the empty word, whose separators trail.
        spelled = zip(*np.array(["", *words], dtype=object)[positions].tolist())
        ngrams = list(map(str.rstrip, map(NGRAM_SEPARATOR.join, spelled), repeat(NGRAM_SEPARATOR)))
        if not _ascending(ngrams):
            raise ValueError("n-grams must be strictly ascending as joined strings")
        dfs, shape = self.document_frequency, (len(unigrams) + n_ngrams,)
        if not (isinstance(dfs, np.ndarray) and dfs.dtype == np.int64 and dfs.shape == shape):
            raise ValueError(f"document frequencies must be an int64 array of shape {shape}")
        if dfs.size and not 1 <= int(dfs.min()) <= int(dfs.max()) <= self.n_documents:
            raise ValueError(f"document frequencies must lie in 1..{self.n_documents}")
        self.idf = smoothed_idf(dfs, self.n_documents)

        # Two ascending runs: the sort merges them in one linear pass.
        both = unigrams + ngrams
        order = sorted(range(len(both)), key=both.__getitem__)
        self.tokens = list(map(both.__getitem__, order))
        index_of = np.empty(len(both), dtype=np.intp)
        index_of[order] = np.arange(len(both))
        self._word_position = {word: i for i, word in enumerate(words, start=1)}
        # The token index of each table position's unigram, -1 for none.
        self._unigram_at = np.full(len(words) + 1, -1, dtype=np.intp)
        self._unigram_at[1 : len(unigrams) + 1] = index_of[: len(unigrams)]
        lengths = present.sum(axis=0)
        self._ngram_index = {}
        for n in range(2, longest + 1):
            of_length = np.flatnonzero(lengths == n)
            if of_length.size:
                self._ngram_index[n] = _NgramIndex.of(
                    positions[:n, of_length], index_of[len(unigrams) + of_length], len(words) + 1
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TfIdfModel):
            return NotImplemented
        return (
            self.unigrams == other.unigrams
            and self.inner_words == other.inner_words
            and np.array_equal(self.ngram_positions, other.ngram_positions)
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
    words = _words_of(text)
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
    The kept tokens are written in the stored form, each n-gram split once.
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
    dfs = np.array([document_frequency[t] for t in kept], dtype=np.int64)
    # Every token the corpus holds is counted; only the kept ones outlive
    # this line, so the count is freed before the model is built.
    del document_frequency
    unigrams = [t for t in kept if NGRAM_SEPARATOR not in t]
    # Row k holds word k of each n-gram, "" (position 0) past its end.
    rows = list(zip_longest(*(t.split(NGRAM_SEPARATOR) for t in kept if NGRAM_SEPARATOR in t),
                            fillvalue=""))
    inner_words = sorted(set().union(*rows).difference(unigrams, [""]))
    position = {word: i for i, word in enumerate(["", *unigrams, *inner_words])}
    positions = np.zeros((len(rows), len(kept) - len(unigrams)), dtype=np.int64)
    for k, row in enumerate(rows):
        positions[k] = list(map(position.__getitem__, row))
    del rows, kept  # freed before the constructor spells the n-grams again
    return TfIdfModel(unigrams, inner_words, positions, dfs, n_documents, config)


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
    each norm summed in index order; an all-OOV text is an empty row.

    Each word becomes its table position (0 outside the table) with one dict
    lookup; unigrams are found by position, and the windows of n words
    within one text by the index of the n-grams of n words."""
    lookup = model._word_position.get
    ids, lengths = [], []
    for text in texts:
        words = _words_of(text)
        ids += map(lookup, words, repeat(0))
        lengths.append(len(words))
    ids = np.array(ids, dtype=np.int64)
    row_of_word = np.repeat(np.arange(len(texts)), lengths)
    unigram = model._unigram_at[ids]
    found = unigram >= 0
    hit_rows, hit_indices = [row_of_word[found]], [unigram[found]]
    for n, index in model._ngram_index.items():
        # The windows of n words that end in the text they start in.
        starts = np.flatnonzero(row_of_word[: max(len(ids) - n + 1, 0)] == row_of_word[n - 1 :])
        found, indices = index.match(ids, starts)
        hit_rows.append(row_of_word[starts[found]])
        hit_indices.append(indices)
    # One key per (row, index) hit: sorted and counted, they are the entries
    # in CSR order with their raw counts.
    dimension = model.dimension
    keys, counts = np.unique(np.concatenate(hit_rows) * dimension + np.concatenate(hit_indices),
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
