"""TF-IDF fitting and transformation against a first-principles oracle."""
import math
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abusivetext.corpus import synth_corpus
from abusivetext.errors import DimensionMismatch, EmptyCorpus
from abusivetext.textprep import preprocess
from abusivetext.vectorizer import (
    NGRAM_SEPARATOR,
    Rows,
    SparseVector,
    TfIdfConfig,
    TfIdfModel,
    fit,
    tokenize,
    transform,
    transform_rows,
)


def oracle_vectors(
    corpus: list[str], query: str, l2_normalize: bool = True
) -> dict[str, float]:
    """Recompute tf, df, idf, and normalization from scratch (unigrams only)."""
    n = len(corpus)
    df = Counter()
    for doc in corpus:
        df.update(set(doc.split()))
    idf = {t: math.log((1 + n) / (1 + c)) + 1.0 for t, c in df.items()}
    weights = {
        t: count * idf[t]
        for t, count in Counter(query.split()).items()
        if t in idf
    }
    if l2_normalize and weights:
        norm = math.sqrt(sum(w * w for w in weights.values()))
        weights = {t: w / norm for t, w in weights.items()}
    return weights


def reference_tokenize(text: str, ngram_max: int = 1) -> list[str]:
    """Each n-gram joined from its own slice of the words, unigrams first:
    the oracle for the zip-based n-grams tokenize builds."""
    words = text.split()
    tokens = list(words)
    for n in range(2, min(ngram_max, len(words)) + 1):
        tokens.extend(
            NGRAM_SEPARATOR.join(words[i : i + n])
            for i in range(len(words) - n + 1)
        )
    return tokens


def reference_transform(model, text: str) -> SparseVector:
    """The per-row transform: a Counter of the row's tokens, sorted (index,
    weight) tuples, the norm's squares added one by one in index order. The
    oracle for the arrays transform_rows builds."""
    counts = Counter(reference_tokenize(text, model.config.ngram_max))
    token_to_index = model.token_to_index
    entries = sorted(
        (token_to_index[token], count * model.idf[token_to_index[token]])
        for token, count in counts.items()
        if token in token_to_index
    )
    if model.config.l2_normalize and entries:
        total = 0.0
        for _, w in entries:
            total += w * w
        norm = math.sqrt(total)
        entries = [(i, w / norm) for i, w in entries]
    return SparseVector(entries=tuple(entries), dimension=model.dimension)


def assert_same_rows(actual: Rows, expected: Rows) -> None:
    assert actual.dimension == expected.dimension
    for name in ("indptr", "row_of_entry", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert a.shape == e.shape and a.tobytes() == e.tobytes(), name


def as_token_weights(model, vector: SparseVector) -> dict[str, float]:
    tokens = model.tokens
    return {tokens[i]: w for i, w in vector.entries}


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_bigrams(self):
        sep = NGRAM_SEPARATOR
        assert tokenize("a b c", ngram_max=2) == [
            "a", "b", "c", f"a{sep}b", f"b{sep}c",
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_trigram_shorter_than_n(self):
        assert tokenize("a b", ngram_max=3) == ["a", "b", f"a{NGRAM_SEPARATOR}b"]

    @pytest.mark.parametrize("text", ["x␟y", "␟x y", "x y␟", "x␟␟ y", "␟"])
    @pytest.mark.parametrize("ngram_max", [1, 2, 3])
    def test_separator_splits_like_whitespace(self, text, ngram_max):
        # No word holds the separator, and none is empty.
        assert tokenize(text, ngram_max) == tokenize(text.replace(NGRAM_SEPARATOR, " "), ngram_max)

    @given(
        st.lists(st.sampled_from(["a", "b", "cc", "a", " ", "  ", "\t", "\u3000"]),
                 max_size=14).map("".join),
        st.integers(1, 6),
    )
    def test_matches_the_sliced_reference(self, text, ngram_max):
        # Texts of fewer words than ngram_max included.
        assert tokenize(text, ngram_max) == reference_tokenize(text, ngram_max)

    @given(st.lists(st.sampled_from("abc"), max_size=8).map(" ".join))
    def test_ngram_max_beyond_the_text_changes_nothing(self, text):
        longest = max(1, len(text.split()))
        assert tokenize(text, ngram_max=10**30) == tokenize(text, ngram_max=longest)


class TestFit:
    def test_two_document_hand_computation(self):
        # df: a=2, b=1, c=1; idf(a) = ln(3/3)+1 = 1;
        # idf(b) = idf(c) = ln(3/2)+1 = 1.4054651081081644 (verified by hand).
        model = fit(["a b", "a c"])
        assert model.tokens == ["a", "b", "c"]
        assert dict(zip(model.tokens, model.document_frequency)) == {"a": 2, "b": 1, "c": 1}
        assert model.idf[0] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[1] == pytest.approx(1.4054651081081644, abs=1e-12)
        assert model.idf[2] == pytest.approx(1.4054651081081644, abs=1e-12)

    def test_literal_separator_is_not_a_bigram(self):
        # With strip_specials off, cleaning keeps U+241F. Read as a word
        # character, "x␟y" would be the bigram (x, y) of the second document,
        # one feature of df 2 beside x and y of df 1.
        sep = NGRAM_SEPARATOR
        model = fit([f"x{sep}y", "x y"], TfIdfConfig(ngram_max=2))
        assert model.tokens == ["x", f"x{sep}y", "y"]
        assert model.document_frequency.tolist() == [2, 2, 2]

    def test_identical_documents_have_unit_idf(self):
        model = fit(["same text here"] * 5)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in model.idf)

    def test_empty_document_corpus_gives_dimension_zero(self):
        model = fit([""])
        assert model.dimension == 0
        assert transform(model, "anything").entries == ()

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit([])

    def test_min_df_filters(self):
        model = fit(["a b", "a c"], TfIdfConfig(min_df=2))
        assert model.tokens == ["a"]

    def test_max_vocab_truncates_by_df_then_token(self):
        model = fit(["a b c", "a b", "a"], TfIdfConfig(max_vocab=2))
        # df: a=3, b=2, c=1 -> keep a, b.
        assert model.tokens == ["a", "b"]
        tied = fit(["x y", "x y"], TfIdfConfig(max_vocab=1))
        assert tied.tokens == ["x"]  # lexicographic tie-break

    def test_indices_are_lexicographic_and_stable(self):
        corpus = ["delta alpha", "charlie bravo alpha"]
        m1, m2 = fit(corpus), fit(corpus)
        assert m1.token_to_index == m2.token_to_index
        tokens = m1.tokens
        assert tokens == sorted(tokens)

    def test_document_frequencies_are_one_int64_array(self):
        model = fit(["a b", "a c"])
        assert model.document_frequency.dtype == np.int64
        assert model.document_frequency.tolist() == [2, 1, 1]

    @pytest.mark.parametrize("dfs", [
        [2, 1, 1],
        np.array([2.0, 1.0, 1.0]),
        np.array([2, 1, 1], dtype=np.int32),
        np.array([2, 1], dtype=np.int64),
        np.array([[2, 1, 1]], dtype=np.int64),
    ])
    def test_document_frequencies_of_another_type_or_shape_rejected(self, dfs):
        with pytest.raises(ValueError, match="int64 array of shape"):
            TfIdfModel(tokens=["a", "b", "c"], document_frequency=dfs, n_documents=2)

    @pytest.mark.parametrize("tokens", [["b", "a"], ["a", "a"], ["a", "c", "b"]])
    def test_tokens_not_strictly_ascending_rejected(self, tokens):
        with pytest.raises(ValueError, match="strictly ascending"):
            TfIdfModel(tokens, np.ones(len(tokens), dtype=np.int64), n_documents=1)

    def test_equality_compares_document_frequencies(self):
        model = fit(["a b", "a c", "b c"])
        other = TfIdfModel(model.tokens, np.array([1, 2, 2]), n_documents=3)
        assert other != model
        assert other.idf.tolist() != model.idf.tolist()
        assert TfIdfModel(model.tokens, model.document_frequency.copy(), 3) == model


class TestTransform:
    def test_hand_computed_weights(self):
        # Pre-norm {a: 1.0, b: 1.4054651}; norm = sqrt(1 + 1.4054651^2)
        # = 1.7249151, so a -> 0.5797387, b -> 0.8148025.
        model = fit(["a b", "a c"])
        weights = as_token_weights(model, transform(model, "a b"))
        assert weights["a"] == pytest.approx(0.57974, abs=1e-4)
        assert weights["b"] == pytest.approx(0.81480, abs=1e-4)

    def test_oov_text_is_zero_vector(self):
        model = fit(["a b", "a c"])
        vector = transform(model, "zzz")
        assert vector.entries == ()
        assert vector.dimension == 3

    def test_repeated_single_token_normalizes_to_one(self):
        model = fit(["a b", "a c"])
        vector = transform(model, "a a")
        assert vector.entries == ((0, pytest.approx(1.0, abs=1e-12)),)

    def test_unnormalized_weights_are_count_times_idf(self):
        model = fit(["a b", "a c"], TfIdfConfig(l2_normalize=False))
        weights = as_token_weights(model, transform(model, "a a b"))
        assert weights["a"] == pytest.approx(2.0, abs=1e-12)
        assert weights["b"] == pytest.approx(1.4054651081081644, abs=1e-12)

    def test_ngram_weights_include_bigrams(self):
        config = TfIdfConfig(ngram_max=2, l2_normalize=False)
        model = fit(["a b", "a c"], config)
        weights = as_token_weights(model, transform(model, "a b"))
        assert f"a{NGRAM_SEPARATOR}b" in weights


class TestInvariants:
    def test_single_token_documents_give_unit_entries(self):
        model = fit(["red green", "blue red", "green"])
        for token in model.token_to_index:
            vector = transform(model, token)
            assert len(vector.entries) == 1
            assert vector.entries[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_normalized_vectors_have_unit_norm_or_zero(self):
        rng = Random(4)
        corpus = [
            " ".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 8)))
            for _ in range(12)
        ]
        model = fit(corpus)
        for doc in corpus + ["zz zz", ""]:
            norm = math.sqrt(sum(w * w for _, w in transform(model, doc).entries))
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_entries_sorted_and_nonzero(self):
        model = fit(["c b a", "a d"])
        vector = transform(model, "d a c")
        indices = [i for i, _ in vector.entries]
        assert indices == sorted(indices)
        assert all(w != 0.0 for _, w in vector.entries)

    def test_sparse_vector_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            SparseVector(entries=((1, 0.5), (0, 0.5)), dimension=3)  # not increasing
        with pytest.raises(ValueError):
            SparseVector(entries=((5, 0.5),), dimension=3)  # index out of range
        with pytest.raises(ValueError):
            SparseVector(entries=((0, 0.0),), dimension=3)  # stored zero

    def test_brute_force_equivalence_on_random_corpora(self):
        rng = Random(31415)
        vocab_pool = [f"w{k}" for k in range(12)]
        for _ in range(60):
            corpus = [
                " ".join(
                    rng.choice(vocab_pool) for _ in range(rng.randint(0, 10))
                )
                for _ in range(rng.randint(1, 20))
            ]
            model = fit(corpus)
            for doc in corpus:
                expected = oracle_vectors(corpus, doc)
                actual = as_token_weights(model, transform(model, doc))
                assert set(actual) == set(expected)
                for token, weight in expected.items():
                    assert actual[token] == pytest.approx(weight, abs=1e-9)


WORDS = st.sampled_from(["a", "b", "c", "dd", "e", "ff", "zz"])
TEXTS = st.lists(WORDS, max_size=12).map(" ".join)
# Rows to transform: the corpus words, repeated, and words no corpus holds,
# so rows may be empty, all out of vocabulary, or count a token many times.
QUERIES = st.lists(WORDS | st.sampled_from(["oov", "qq"]), max_size=12).map(" ".join)


class TestTransformRows:
    @settings(deadline=None)
    @given(
        corpus=st.lists(TEXTS, min_size=1, max_size=8),
        texts=st.lists(QUERIES | st.sampled_from(["", "oov qq oov"]), max_size=10),
        ngram_max=st.integers(1, 4),
        l2_normalize=st.booleans(),
        min_df=st.integers(1, 3),
        max_vocab=st.none() | st.integers(0, 6),
    )
    def test_bit_equal_to_the_per_row_reference(
        self, corpus, texts, ngram_max, l2_normalize, min_df, max_vocab
    ):
        config = TfIdfConfig(
            ngram_max=ngram_max, l2_normalize=l2_normalize, min_df=min_df,
            max_vocab=max_vocab,
        )
        model = fit(corpus, config)
        expected = Rows.pack(
            [reference_transform(model, t) for t in texts], model.dimension
        )
        assert_same_rows(transform_rows(model, texts), expected)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_synth_corpus_with_bigrams_and_oov_rows(self, seed):
        texts = [preprocess(ex.text) for ex in synth_corpus(seed, 40)]
        model = fit(texts[:50], TfIdfConfig(ngram_max=2))
        texts += ["", "zzz-never-seen"]
        expected = Rows.pack(
            [reference_transform(model, t) for t in texts], model.dimension
        )
        assert_same_rows(transform_rows(model, texts), expected)
        assert [transform(model, t) for t in texts] == [
            reference_transform(model, t) for t in texts
        ]

    def test_take_picks_rows_in_the_given_order(self):
        model = fit(["a b", "a c", "b c d"])
        texts = ["a b", "d", "zz", "c a d", "b"]
        rows = transform_rows(model, texts)
        pick = [3, 0, 2, 3]
        assert_same_rows(rows.take(pick), transform_rows(model, [texts[i] for i in pick]))

    def test_pack_rejects_another_dimension(self):
        ok = SparseVector(entries=((1, 0.5),), dimension=3)
        with pytest.raises(DimensionMismatch):
            Rows.pack([ok, SparseVector(entries=(), dimension=4)], 3)
        assert Rows.pack([], 3).n_rows == 0
