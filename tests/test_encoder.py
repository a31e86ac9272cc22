"""Subword tokenizer, encoder forward invariants, gradient correctness, and
seeded training behavior.

The gradient checks run deliberately tiny configurations (d_model 8, one or
two layers, two heads, sequence length 8) so central finite differences over
every parameter tensor stay fast. The key-projection bias is a known special case:
softmax is invariant to per-row score shifts, so its true gradient is zero.
The last layer folds the CLS query into its key weights and drops that term,
so there both sides of the check are exactly 0. In inner layers both sides
are numerical noise; the floored denominator below treats that correctly
instead of dividing noise by noise.
"""
import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abusivetext import bundle as bd
from abusivetext import encoder as enc
from abusivetext.configs import MICRO_ENCODER, RunConfig
from abusivetext.corpus import Label, VocabProfile, synth_corpus
from abusivetext.errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyData,
    TrainingDiverged,
)
from abusivetext.metrics import TrainReport, decided_macro_f1
from abusivetext.textprep import preprocess

MICRO_CONFIG = enc.EncoderConfig(
    d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=8
)
TWO_LAYER_CONFIG = enc.EncoderConfig(
    d_model=8, n_heads=2, n_layers=2, d_ff=16, max_length=8
)


@pytest.fixture(scope="module")
def toy_tokenizer():
    return enc.train_subword(["aaab bcd xyz", "hello aaab world"], vocab_size=24)


def micro_batch(tokenizer, seed=11, batch=4):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, tokenizer.vocab_size, size=(batch, MICRO_CONFIG.max_length))
    ids[:, 0] = enc.CLS_ID
    mask = np.ones((batch, MICRO_CONFIG.max_length))
    mask[0, 5:] = 0.0
    mask[2, 3:] = 0.0
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    return ids, mask, labels


def apply_merge(symbols, pair):
    """Merge every non-overlapping occurrence of pair, left to right."""
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(symbols):
        if (
            i + 1 < len(symbols)
            and symbols[i] == pair[0]
            and symbols[i + 1] == pair[1]
        ):
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def reference_train_subword(corpus, vocab_size):
    """Textbook BPE training: re-count every pair of the whole corpus before
    each merge. The oracle for the local pair updates in train_subword."""
    word_freqs = Counter()
    for text in corpus:
        word_freqs.update(text.split())
    words = [
        ([bytes([b]) for b in word.encode("utf-8")], freq)
        for word, freq in sorted(word_freqs.items())
    ]
    pieces = sorted({s for symbols, _ in words for s in symbols})
    known = set(pieces)
    merges = []
    while 3 + len(pieces) < vocab_size:
        pair_counts = Counter()
        for symbols, freq in words:
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] += freq
        if not pair_counts:
            break
        top = max(pair_counts.values())
        best = min(pair for pair, count in pair_counts.items() if count == top)
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
        words = [(apply_merge(symbols, best), freq) for symbols, freq in words]
    return pieces, merges


def reference_pieces_of_word(tokenizer, word):
    """Re-scan every adjacent pair for the lowest merge rank, merge all its
    occurrences, repeat. The oracle for SubwordTokenizer.pieces_of_word."""
    rank_of = {pair: rank for rank, pair in enumerate(tokenizer.merges)}
    symbols = [bytes([b]) for b in word.encode("utf-8")]
    while len(symbols) >= 2:
        best_rank = None
        best_pair = None
        for left, right in zip(symbols, symbols[1:]):
            rank = rank_of.get((left, right))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, (left, right)
        if best_pair is None:
            break
        symbols = apply_merge(symbols, best_pair)
    return symbols


def reference_piece_encode(tokenizer, text, max_length):
    """Piece-by-piece encoding with no memo, truncated to max_length."""
    ids = [enc.CLS_ID]
    for word in text.split():
        for piece in reference_pieces_of_word(tokenizer, word):
            ids.append(tokenizer.piece_to_id.get(piece, enc.UNK_ID))
    ids = ids[:max_length]
    n_real = len(ids)
    ids += [enc.PAD_ID] * (max_length - n_real)
    return ids, [1.0] * n_real + [0.0] * (max_length - n_real)


def reference_encode(tokenizer, text, max_length):
    """One row at a time: the ids as a list, truncated and PAD-filled, and the
    mask as a list of floats, each turned into an array. The oracle for
    encode_batch, which fills whole matrices."""
    ids = [enc.CLS_ID]
    for word in text.split():
        if len(ids) >= max_length:
            break
        ids.extend(tokenizer.word_ids(word))
    del ids[max_length:]
    n_real = len(ids)
    ids.extend([enc.PAD_ID] * (max_length - n_real))
    mask = [1.0] * n_real + [0.0] * (max_length - n_real)
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=np.float64)


def reference_encode_batch(tokenizer, texts, max_length):
    """reference_encode for each text, stacked row by row."""
    ids = np.empty((len(texts), max_length), dtype=np.int64)
    mask = np.empty((len(texts), max_length), dtype=np.float64)
    for row, text in enumerate(texts):
        ids[row], mask[row] = reference_encode(tokenizer, text, max_length)
    return ids, mask


def assert_same_array(actual, expected):
    """Equal shape, dtype and bytes: no tolerance."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def dravidian_corpus(n_words=600, seed=5):
    """Seeded Tamil and Malayalam pseudo-words, 2-7 letters of 3 UTF-8 bytes
    each, a few with a Latin prefix: enough distinct pairs to fill a
    2,048-piece inventory."""
    rng = random.Random(seed)
    letters = [chr(c) for c in range(0x0B85, 0x0BCE)] + [
        chr(c) for c in range(0x0D05, 0x0D4E)
    ]
    words = []
    for _ in range(n_words):
        word = "".join(rng.choice(letters) for _ in range(rng.randint(2, 7)))
        if rng.random() < 0.1:
            word = rng.choice("kmpt") + word
        words.append(word)
    return [" ".join(words[i : i + 10]) for i in range(0, n_words, 10)]


DRAVIDIAN_CORPUS = dravidian_corpus()

# Small alphabets make repeated-symbol words ("aaaa", "abab") and count ties
# common; the Tamil letters add multi-byte symbols.
words_st = st.text(alphabet="abcஅம்", min_size=1, max_size=7)
corpus_st = st.lists(
    st.lists(words_st, max_size=6).map(" ".join), min_size=1, max_size=6
)


class TestTrainSubword:
    def test_first_merge_is_most_frequent_pair(self):
        # "aaab" has pairs (a,a) x2 and (a,b) x1 per copy; (a,a) wins 4 to 2.
        tokenizer = enc.train_subword(["aaab", "aaab"], vocab_size=16)
        assert tokenizer.merges[0] == (b"a", b"a")

    def test_unknown_bytes_become_unk(self):
        tokenizer = enc.train_subword(["abc"], vocab_size=8)
        ids, _ = enc.encode(tokenizer, "q", max_length=4)
        assert ids[1] == enc.UNK_ID

    def test_deterministic_inventory(self):
        corpus = ["the quick brown fox", "the slow brown dog"]
        assert enc.train_subword(corpus, 40) == enc.train_subword(corpus, 40)

    def test_tie_breaks_lexicographically(self):
        # "ab" and "cd" both occur once; (a,b) < (c,d) as byte pairs.
        tokenizer = enc.train_subword(["ab cd"], vocab_size=8)
        assert tokenizer.merges[0] == (b"a", b"b")

    def test_vocab_size_cap_respected(self):
        tokenizer = enc.train_subword(["abcdefgh " * 3], vocab_size=12)
        assert tokenizer.vocab_size <= 12

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            enc.train_subword([], vocab_size=8)

    def test_vocab_size_too_small_rejected(self):
        with pytest.raises(ValueError):
            enc.train_subword(["a"], vocab_size=3)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpus_st, vocab_size=st.integers(4, 48))
    @example(corpus=["aaaa aaaa abab"], vocab_size=12)
    @example(corpus=["abab baba", "aaaa"], vocab_size=20)
    @example(corpus=["ab cd", "cd ab"], vocab_size=10)
    @example(corpus=DRAVIDIAN_CORPUS, vocab_size=2048)
    def test_matches_full_rescan_reference(self, corpus, vocab_size):
        tokenizer = enc.train_subword(corpus, vocab_size)
        pieces, merges = reference_train_subword(corpus, vocab_size)
        assert list(tokenizer.merges) == merges
        assert list(tokenizer.pieces) == pieces

    def test_dravidian_case_reaches_a_large_vocabulary(self):
        # The DRAVIDIAN_CORPUS example above runs past 1,900 merges.
        tokenizer = enc.train_subword(DRAVIDIAN_CORPUS, 2048)
        assert tokenizer.vocab_size == 2048
        assert len(tokenizer.merges) > 1900

    def test_multibyte_script_roundtrips_through_pieces(self):
        word = "அம்மா"
        tokenizer = enc.train_subword([word, word], vocab_size=64)
        pieces = tokenizer.pieces_of_word(word)
        assert b"".join(pieces) == word.encode("utf-8")


# One hand-built tokenizer with the corners the trainer never makes: (ab, a)
# ranked before (a, b), so a merge can form a pair that outranks the pair
# just merged; (a, a) listed twice, so its later rank counts; "aba" reached
# by two different merges; and no piece for the byte "c" or for "aaaa".
HAND_BUILT = enc.SubwordTokenizer(
    pieces=[b"a", b"b", b"ab", b"aa", b"aba", b"abab"],
    merges=[
        (b"ab", b"a"), (b"a", b"b"), (b"a", b"a"), (b"b", b"a"),
        (b"a", b"ba"), (b"aa", b"aa"), (b"a", b"a"), (b"ab", b"ab"),
    ],
)
SCRIPTS = {
    "latin": "abcdeklmnprst",
    "tamil": "அஆஇஉஎகஙசஞடணதநபமயரலவழளறன்ாிீுூெேை",
    "malayalam": "അആഇഉഎകങചഞടണതനപമയരലവഴളറന്ാിീുൂെേൈ",
}


@st.composite
def trained_tokenizer_and_word(draw):
    """A tokenizer trained on a one-script corpus, and a word in that script
    that may hold characters the corpus never saw."""
    alphabet = draw(st.sampled_from(sorted(SCRIPTS.values())))
    words = st.text(alphabet=alphabet, min_size=1, max_size=8)
    corpus = draw(st.lists(
        st.lists(words, min_size=1, max_size=8).map(" ".join), min_size=1, max_size=8
    ))
    tokenizer = enc.train_subword(corpus, draw(st.integers(4, 160)))
    return tokenizer, draw(st.text(alphabet=alphabet + "xé", min_size=1, max_size=12))


@st.composite
def hand_built_tokenizer_and_word(draw):
    """Arbitrary merges over short "ab" strings, repeats allowed, and an
    arbitrary subset of the bytes and merge results as pieces."""
    symbol = st.text(alphabet="ab", min_size=1, max_size=3).map(str.encode)
    merges = draw(st.lists(st.tuples(symbol, symbol), max_size=12))
    candidates = sorted({b"a", b"b", b"c"} | {x + y for x, y in merges})
    pieces = draw(st.lists(st.sampled_from(candidates), unique=True))
    tokenizer = enc.SubwordTokenizer(pieces=pieces, merges=merges)
    return tokenizer, draw(st.text(alphabet="abc", min_size=1, max_size=12))


class TestPiecesOfWord:
    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(trained_tokenizer_and_word(), hand_built_tokenizer_and_word()))
    @example(case=(HAND_BUILT, "aaaa"))
    @example(case=(HAND_BUILT, "abab"))
    @example(case=(HAND_BUILT, "ababa"))
    @example(case=(HAND_BUILT, "baa"))
    @example(case=(HAND_BUILT, "cababcaaab"))
    def test_matches_full_rescan_reference(self, case):
        tokenizer, word = case
        assert tokenizer.pieces_of_word(word) == reference_pieces_of_word(tokenizer, word)

    def test_hand_built_corners(self):
        # By hand. "abab": both (a, b) merge at once, so (ab, a) at rank 0
        # never forms, then (ab, ab). "ababa": both (a, b), then (ab, a).
        # "baa": (a, a) counts at rank 6, after (b, a) at rank 3. "aaaa":
        # (a, a) twice, then (aa, aa), a piece the inventory lacks.
        assert HAND_BUILT.pieces_of_word("abab") == [b"abab"]
        assert HAND_BUILT.pieces_of_word("ababa") == [b"ab", b"aba"]
        assert HAND_BUILT.pieces_of_word("baa") == [b"ba", b"a"]
        assert HAND_BUILT.pieces_of_word("aaaa") == [b"aaaa"]
        assert enc.encode(HAND_BUILT, "aaaa cab", 8)[0].tolist()[:5] == [
            enc.CLS_ID, enc.UNK_ID, enc.UNK_ID, 3 + HAND_BUILT.pieces.index(b"ab"),
            enc.PAD_ID,
        ]

    def test_large_dravidian_vocabulary_matches_reference(self):
        tokenizer = enc.train_subword(DRAVIDIAN_CORPUS, 2048)
        words = {w for text in DRAVIDIAN_CORPUS for w in text.split()}
        words |= {w[::-1] for w in words}
        for word in sorted(words):
            assert tokenizer.pieces_of_word(word) == reference_pieces_of_word(
                tokenizer, word
            )


class TestEncode:
    def test_empty_text(self, toy_tokenizer):
        ids, mask = enc.encode(toy_tokenizer, "", max_length=128)
        assert ids[0] == enc.CLS_ID
        assert np.all(ids[1:] == enc.PAD_ID)
        assert mask[0] == 1.0 and np.all(mask[1:] == 0.0)

    def test_long_text_truncates_to_exact_length(self, toy_tokenizer):
        ids, mask = enc.encode(toy_tokenizer, "aaab " * 400, max_length=128)
        assert ids.shape == (128,)
        assert mask.sum() == 128
        assert ids[127] != enc.PAD_ID

    def test_length_and_mask_accounting(self, toy_tokenizer):
        text = "hello world"
        pieces = sum(
            len(toy_tokenizer.pieces_of_word(w)) for w in text.split()
        )
        ids, mask = enc.encode(toy_tokenizer, text, max_length=128)
        assert ids.shape == (128,)
        assert mask.sum() == 1 + pieces

    def test_max_length_one_is_cls_only(self, toy_tokenizer):
        ids, mask = enc.encode(toy_tokenizer, "hello aaab world", max_length=1)
        assert ids.tolist() == [enc.CLS_ID]
        assert mask.tolist() == [1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.lists(
            st.text(alphabet="abcdehlorwxyzé", min_size=1, max_size=6), max_size=12
        ).map(" ".join),
        max_length=st.integers(1, 24),
    )
    def test_memoized_encode_matches_piece_reference(
        self, toy_tokenizer, text, max_length
    ):
        ids, mask = enc.encode(toy_tokenizer, text, max_length)
        ref_ids, ref_mask = reference_piece_encode(toy_tokenizer, text, max_length)
        assert ids.tolist() == ref_ids
        assert mask.tolist() == ref_mask

    def test_memo_contents_do_not_affect_equality(self):
        corpus = ["the quick brown fox", "the slow brown dog"]
        first, second = enc.train_subword(corpus, 40), enc.train_subword(corpus, 40)
        enc.encode(first, "the quick fox", max_length=16)
        enc.encode(second, "slow brown dog", max_length=16)
        assert first == second

    def test_only_known_ids(self, toy_tokenizer):
        ids, _ = enc.encode(toy_tokenizer, "completely novel éé", max_length=32)
        assert np.all(ids < toy_tokenizer.vocab_size)
        assert np.all(ids >= 0)


# Words over bytes the toy tokenizer holds, plus "q" and "é", which it never
# saw and so encode as UNK.
texts_st = st.lists(
    st.lists(st.text(alphabet="abcdehlorwxyzqé", min_size=1, max_size=6), max_size=12)
    .map(" ".join),
    max_size=8,
)


class TestEncodeBatch:
    @settings(max_examples=200, deadline=None)
    @given(texts=texts_st, max_length=st.integers(1, 24))
    @example(texts=[], max_length=5)
    @example(texts=[""], max_length=4)
    @example(texts=["", "aaab", ""], max_length=1)
    @example(texts=["aaab " * 40, "hello", "qqq éé"], max_length=8)
    def test_matches_stacked_per_row_reference(self, toy_tokenizer, texts, max_length):
        ids, mask = enc.encode_batch(toy_tokenizer, texts, max_length)
        ref_ids, ref_mask = reference_encode_batch(toy_tokenizer, texts, max_length)
        assert_same_array(ids, ref_ids)
        assert_same_array(mask, ref_mask)

    @pytest.mark.parametrize("text", ["", "hello aaab world", "aaab " * 40, "q é"])
    @pytest.mark.parametrize("max_length", [1, 2, 16])
    def test_encode_is_one_row_of_the_batch(self, toy_tokenizer, text, max_length):
        ids, mask = enc.encode(toy_tokenizer, text, max_length)
        ref_ids, ref_mask = reference_encode(toy_tokenizer, text, max_length)
        assert_same_array(ids, ref_ids)
        assert_same_array(mask, ref_mask)

    def test_no_rows_gives_empty_matrices(self, toy_tokenizer):
        ids, mask = enc.encode_batch(toy_tokenizer, [], 6)
        assert_same_array(ids, np.empty((0, 6), dtype=np.int64))
        assert_same_array(mask, np.empty((0, 6), dtype=np.float64))

    @pytest.mark.parametrize("max_length", [0, -1, -128])
    def test_max_length_below_one_rejected(self, toy_tokenizer, max_length):
        with pytest.raises(ValueError, match="max_length must be >= 1"):
            enc.encode(toy_tokenizer, "hello", max_length)
        with pytest.raises(ValueError, match="max_length must be >= 1"):
            enc.encode_batch(toy_tokenizer, ["hello", ""], max_length)
        with pytest.raises(ValueError, match="max_length must be >= 1"):
            enc.encode_batch(toy_tokenizer, [], max_length)

class TestDerivedPieces:
    @settings(max_examples=100, deadline=None)
    @given(case=trained_tokenizer_and_word())
    def test_trained_pieces_are_derived_from_bytes_and_merges(self, case):
        tokenizer, _ = case
        singles = [p for p in tokenizer.pieces if len(p) == 1]
        assert singles == sorted(singles)
        assert enc.derive_pieces(singles, tokenizer.merges) == list(tokenizer.pieces)

    def test_a_repeated_output_makes_no_second_piece(self):
        # (ab, c) and (a, bc) both make "abc".
        merges = [(b"a", b"b"), (b"b", b"c"), (b"ab", b"c"), (b"a", b"bc")]
        assert enc.derive_pieces([b"a", b"b", b"c"], merges) == [
            b"a", b"b", b"c", b"ab", b"bc", b"abc",
        ]

    @pytest.mark.parametrize("merges", [[(b"ab", b"a"), (b"a", b"b")], [(b"a", b"c")]])
    def test_operand_that_is_not_yet_a_piece(self, merges):
        with pytest.raises(ValueError, match="not yet a piece"):
            enc.derive_pieces([b"a", b"b"], merges)

    def test_bundle_refuses_the_hand_built_tokenizer(self):
        # Its first merge reads "ab" before any merge made it, and it has no
        # piece for "ba": no byte inventory and merge list derive its pieces.
        theta = enc.init_theta(MICRO_CONFIG, HAND_BUILT.vocab_size, seed=0)
        model = enc.EncoderModel(theta, MICRO_CONFIG, HAND_BUILT.vocab_size)
        with pytest.raises(ValueError, match="not yet a piece"):
            bd.MicroEncoderPayload(HAND_BUILT, model).to_doc(
                RunConfig(model_kind=MICRO_ENCODER, encoder=MICRO_CONFIG)
            )


class TestSeededWordMemo:
    @settings(max_examples=200, deadline=None)
    @given(corpus=corpus_st, vocab_size=st.integers(4, 48))
    @example(corpus=["aaaa aaaa abab"], vocab_size=12)
    @example(corpus=DRAVIDIAN_CORPUS, vocab_size=2048)
    def test_seeded_entries_equal_a_fresh_tokenizer(self, corpus, vocab_size):
        tokenizer = enc.train_subword(corpus, vocab_size)
        words = {word for text in corpus for word in text.split()}
        n_bytes = len({b for word in words for b in word.encode("utf-8")})
        seeded = dict(tokenizer._word_ids)
        if len(tokenizer.merges) == len(tokenizer.pieces) - n_bytes:
            assert seeded.keys() == words
        else:
            assert seeded == {}
        fresh = enc.SubwordTokenizer(tokenizer.pieces, tokenizer.merges)
        for word, ids in seeded.items():
            assert ids == fresh.word_ids(word)

    def test_repeated_merge_output_seeds_nothing(self):
        # (ab, c) and (a, bc) both make "abc": four merges, three new pieces.
        tokenizer = enc.SubwordTokenizer(
            pieces=[b"a", b"b", b"c", b"ab", b"bc", b"abc"],
            merges=[(b"a", b"b"), (b"b", b"c"), (b"ab", b"c"), (b"a", b"bc")],
        )
        enc._remember_segmentations(tokenizer, 3, [("abc", [b"abc"])])
        assert tokenizer._word_ids == {}

    def test_new_merge_outputs_seed_every_word(self):
        tokenizer = enc.SubwordTokenizer(
            pieces=[b"a", b"b", b"ab"], merges=[(b"a", b"b")]
        )
        enc._remember_segmentations(
            tokenizer, 2, [("ab", [b"ab"]), ("ba", [b"b", b"a"])]
        )
        assert tokenizer._word_ids == {"ab": (5,), "ba": (4, 3)}


class TestEncoderConfig:
    @pytest.mark.parametrize(
        "field", ["d_model", "n_heads", "n_layers", "d_ff", "max_length"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            enc.EncoderConfig(**{field: value})


class TestInitParams:
    def test_seeded_init_is_pinned(self):
        # An encoder bundle stores only the parameters that differ from this
        # init, so a numpy whose Generator draws another stream must fail
        # here, not when a user loads a bundle.
        params = enc.init_params(TWO_LAYER_CONFIG, 40, seed=11)
        assert list(params) == list(enc.parameter_shapes(TWO_LAYER_CONFIG, 40))
        digest = hashlib.sha256()
        for array in params.values():
            assert array.dtype == np.float64
            digest.update(array.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "9c477849c433a6ed4be8713ee7a89e832d84092e0c25114bcd1a16bd86a17e20"
        )

    def test_parameter_count_is_the_summed_shapes(self):
        for (d_model, n_heads), d_ff, max_length, n_layers, vocab_size in itertools.product(
            [(1, 1), (4, 2), (6, 3), (8, 4)], [1, 5, 16], [1, 8], [1, 2, 3, 4], [4, 37, 512]
        ):
            config = enc.EncoderConfig(d_model=d_model, n_heads=n_heads, n_layers=n_layers,
                                       d_ff=d_ff, max_length=max_length)
            shapes = enc.parameter_shapes(config, vocab_size).values()
            assert enc.parameter_count(config, vocab_size) == sum(map(math.prod, shapes))


class TestFlatModel:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_params_are_views_of_theta(self, n_layers):
        config = replace(TWO_LAYER_CONFIG, n_layers=n_layers)
        model = enc.EncoderModel(enc.init_theta(config, 40, seed=n_layers), config, 40)
        assert list(model.params) == list(enc.parameter_shapes(config, 40))
        start = 0
        for name, view in model.params.items():
            assert view.shape == enc.parameter_shapes(config, 40)[name]
            view.reshape(-1)[-1] = 7.5
            assert model.theta[start + view.size - 1] == 7.5
            model.theta[start] = -3.25
            assert view.reshape(-1)[0] == -3.25
            start += view.size
        assert start == model.theta.size == enc.parameter_count(config, 40)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_init_params_splits_init_theta(self, n_layers):
        config = replace(TWO_LAYER_CONFIG, n_layers=n_layers)
        theta = enc.init_theta(config, 40, seed=n_layers)
        params = enc.init_params(config, 40, seed=n_layers)
        shapes = enc.parameter_shapes(config, 40)
        assert list(params) == list(shapes)
        sizes = [math.prod(shape) for shape in shapes.values()]
        pieces = np.split(theta, np.cumsum(sizes)[:-1])
        for (name, shape), piece in zip(shapes.items(), pieces):
            assert params[name].tobytes() == piece.reshape(shape).tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_one_element_apart_is_unequal(self, n_layers):
        config = replace(TWO_LAYER_CONFIG, n_layers=n_layers)
        theta = enc.init_theta(config, 40, seed=n_layers)
        model = enc.EncoderModel(theta, config, 40)
        assert model == enc.EncoderModel(theta.copy(), config, 40)
        for index in (0, theta.size // 2, theta.size - 1):
            moved = theta.copy()
            moved[index] += 1.0
            assert model != enc.EncoderModel(moved, config, 40)


def forward_one_row(params, config, ids, mask):
    """forward_batch on a batch of one encoded row: (its probability, the
    per-layer attention maps of that row)."""
    probs, cache = enc.forward_batch(params, config, ids[None, :], mask[None, :])
    return float(probs[0]), [layer["attn"][0] for layer in cache["layers"]]


class TestForward:
    def test_zero_head_gives_half(self, toy_tokenizer):
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=0)
        params["head.w"][:] = 0.0
        params["head.b"] = np.zeros(())
        ids, mask = enc.encode(toy_tokenizer, "aaab", MICRO_CONFIG.max_length)
        assert forward_one_row(params, MICRO_CONFIG, ids, mask)[0] == 0.5

    def test_attention_rows_sum_to_one(self, toy_tokenizer):
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=1)
        ids, mask = enc.encode(toy_tokenizer, "aaab bcd", MICRO_CONFIG.max_length)
        for attn in forward_one_row(params, MICRO_CONFIG, ids, mask)[1]:
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)

    def test_masked_keys_get_zero_attention(self, toy_tokenizer):
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=1)
        ids, mask = enc.encode(toy_tokenizer, "xyz", MICRO_CONFIG.max_length)
        padded = mask == 0.0
        for attn in forward_one_row(params, MICRO_CONFIG, ids, mask)[1]:
            assert np.all(attn[:, :, padded] == 0.0)

    def test_pad_tail_mutation_is_invisible(self, toy_tokenizer):
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=2)
        ids, mask = enc.encode(toy_tokenizer, "hello", MICRO_CONFIG.max_length)
        reference, _ = forward_one_row(params, MICRO_CONFIG, ids, mask)
        rng = np.random.default_rng(5)
        tail = int(mask.sum())
        for _ in range(10):
            mutated = ids.copy()
            mutated[tail:] = rng.integers(0, toy_tokenizer.vocab_size, ids.size - tail)
            p, _ = forward_one_row(params, MICRO_CONFIG, mutated, mask)
            assert abs(p - reference) < 1e-6

    def test_output_strictly_inside_unit_interval(self, toy_tokenizer):
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=3)
        params["head.b"] = np.array(80.0)  # force a saturating logit
        ids, mask = enc.encode(toy_tokenizer, "aaab", MICRO_CONFIG.max_length)
        p, _ = forward_one_row(params, MICRO_CONFIG, ids, mask)
        assert 0.0 < p < 1.0

    def test_shapes_at_layer_boundaries(self, toy_tokenizer):
        # Layer 0 runs full attention at every position; the last layer only
        # the CLS query, folded into its key and value weights, so it keeps
        # no per-position keys or values.
        config = TWO_LAYER_CONFIG
        ids, mask, _ = micro_batch(toy_tokenizer, batch=3)
        params = enc.init_params(config, toy_tokenizer.vocab_size, seed=4)
        probs, cache = enc.forward_batch(params, config, ids, mask)
        b, length, d = 3, config.max_length, config.d_model
        heads, d_head, d_ff = config.n_heads, config.d_head, config.d_ff
        assert probs.shape == (b,)
        first, last = cache["layers"]
        assert first["qh"].shape == (b, heads, length, d_head)
        assert first["kh"].shape == first["vh"].shape == (b, heads, length, d_head)
        assert first["attn"].shape == (b, heads, length, length)
        assert first["ctx"].shape == (b, length, d)
        assert first["x1"].shape == (b, length, d)
        assert first["h1"].shape == (b, length, d_ff)
        assert last["x_in"].shape == (b, length, d)
        assert last["q"].shape == (b, heads, d_head)
        assert last["u"].shape == last["z"].shape == (b, heads, d)
        assert last["attn"].shape == (b, heads, 1, length)
        assert last["ctx"].shape == (b, 1, d)
        assert last["x1"].shape == (b, 1, d)
        assert last["h1"].shape == (b, 1, d_ff)
        assert cache["cls"].shape == (b, d)
        # Layer-norm caches are tuples; the dropout masks here are None.
        arrays = [
            array
            for value in last.values()
            for array in (value if isinstance(value, tuple) else (value,))
            if array is not None
        ]
        assert all(array.shape != (b, heads, length, d_head) for array in arrays)


def gradient_check(params, config, ids, mask, labels, step=1e-5):
    """Central finite differences across every tensor; returns worst
    relative error with a floor so true-zero gradients compare as noise."""
    probs, cache = enc.forward_batch(params, config, ids, mask)
    grads = enc.backward_batch(params, config, cache, probs, labels)

    def loss_now() -> float:
        p, _ = enc.forward_batch(params, config, ids, mask)
        return enc.batch_loss(p, labels)

    worst = 0.0
    for name, analytic in grads.items():
        numeric = np.zeros_like(analytic)
        flat_param = params[name].reshape(-1)
        flat_numeric = numeric.reshape(-1)
        for i in range(flat_param.size):
            original = flat_param[i]
            flat_param[i] = original + step
            up = loss_now()
            flat_param[i] = original - step
            down = loss_now()
            flat_param[i] = original
            flat_numeric[i] = (up - down) / (2 * step)
        denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-6)
        worst = max(worst, np.linalg.norm(analytic - numeric) / denom)
    return worst


class TestGradients:
    def test_all_tensors_match_finite_differences(self, toy_tokenizer):
        ids, mask, labels = micro_batch(toy_tokenizer)
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=5)
        assert gradient_check(params, MICRO_CONFIG, ids, mask, labels) < 1e-4

    def test_two_layers_match_finite_differences(self, toy_tokenizer):
        # Layer 0 runs full width and the last layer the CLS row only, so
        # both gradient shapes meet here.
        ids, mask, labels = padded_batch(toy_tokenizer, lengths=(8, 3, 5, 1))
        params = enc.init_params(TWO_LAYER_CONFIG, toy_tokenizer.vocab_size, seed=6)
        assert gradient_check(params, TWO_LAYER_CONFIG, ids, mask, labels) < 1e-4

    def test_gradients_flow_to_embeddings_of_used_tokens_only(self, toy_tokenizer):
        ids, mask, labels = micro_batch(toy_tokenizer)
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=6)
        probs, cache = enc.forward_batch(params, MICRO_CONFIG, ids, mask)
        grads = enc.backward_batch(params, MICRO_CONFIG, cache, probs, labels)
        used = np.unique(ids)
        unused = np.setdiff1d(np.arange(toy_tokenizer.vocab_size), used)
        assert np.all(grads["tok_emb"][unused] == 0.0)
        assert np.any(grads["tok_emb"][used] != 0.0)


def padded_batch(tokenizer, lengths=(5, 3, 4, 2)):
    """A micro batch in which every row ends in padding."""
    ids, mask, labels = micro_batch(tokenizer, batch=len(lengths))
    mask[:] = 0.0
    for row, n in enumerate(lengths):
        mask[row, :n] = 1.0
    ids[mask == 0.0] = enc.PAD_ID
    return ids, mask, labels


def assert_trimmed_matches_full(config, tokenizer, make_rng=lambda: None):
    ids, mask, labels = padded_batch(tokenizer)
    params = enc.init_params(config, tokenizer.vocab_size, seed=7)
    short_ids, short_mask = enc.trim_padding(ids, mask)
    assert short_ids.shape == (4, 5) and short_mask.shape == (4, 5)

    full_probs, full_cache = enc.forward_batch(
        params, config, ids, mask, dropout_rng=make_rng()
    )
    full_grads = enc.backward_batch(params, config, full_cache, full_probs, labels)
    probs, cache = enc.forward_batch(
        params, config, short_ids, short_mask, dropout_rng=make_rng()
    )
    grads = enc.backward_batch(params, config, cache, probs, labels)

    np.testing.assert_allclose(probs, full_probs, rtol=0, atol=1e-12)
    assert grads.keys() == full_grads.keys()
    for name in grads:
        np.testing.assert_allclose(
            grads[name], full_grads[name], rtol=0, atol=1e-12, err_msg=name
        )
    assert np.all(grads["pos_emb"][5:] == 0.0)
    assert np.all(full_grads["pos_emb"][5:] == 0.0)


class TestTrimPadding:
    def test_cuts_to_longest_real_row(self, toy_tokenizer):
        ids, mask, _ = padded_batch(toy_tokenizer, lengths=(2, 6, 1))
        short_ids, short_mask = enc.trim_padding(ids, mask)
        assert short_ids.shape == short_mask.shape == (3, 6)
        assert np.array_equal(short_ids, ids[:, :6])
        assert np.array_equal(short_mask, mask[:, :6])

    def test_full_rows_are_not_cut(self, toy_tokenizer):
        ids, mask, _ = micro_batch(toy_tokenizer)
        short_ids, short_mask = enc.trim_padding(ids, mask)
        assert short_ids.shape == ids.shape and short_mask.shape == mask.shape

    def test_trimmed_batch_matches_full_width(self, toy_tokenizer):
        assert_trimmed_matches_full(MICRO_CONFIG, toy_tokenizer)

    def test_trimmed_batch_matches_full_width_with_dropout(self, toy_tokenizer):
        config = enc.EncoderConfig(
            d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=8, dropout=0.2
        )
        assert_trimmed_matches_full(
            config, toy_tokenizer, make_rng=lambda: np.random.default_rng(3)
        )

    def test_trimmed_gradients_match_finite_differences(self, toy_tokenizer):
        ids, mask, labels = padded_batch(toy_tokenizer)
        ids, mask = enc.trim_padding(ids, mask)
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=5)
        assert gradient_check(params, MICRO_CONFIG, ids, mask, labels) < 1e-4

    def test_batch_wider_than_max_length_rejected(self, toy_tokenizer):
        params = enc.init_params(MICRO_CONFIG, toy_tokenizer.vocab_size, seed=1)
        width = MICRO_CONFIG.max_length + 1
        with pytest.raises(DimensionMismatch):
            enc.forward_batch(
                params, MICRO_CONFIG,
                np.zeros((2, width), dtype=np.int64), np.ones((2, width)),
            )


class TestTrainEncoder:
    def small_pairs(self, n_per_class=8):
        split = synth_corpus(
            13, n_per_class,
            profile=VocabProfile(words_min=2, words_max=4, url_rate=0.0, punct_rate=0.0),
        )
        return [(preprocess(ex.text), ex.label) for ex in split]

    def test_lr_zero_leaves_parameters_at_init(self):
        pairs = self.small_pairs()
        tokenizer = enc.train_subword([t for t, _ in pairs], vocab_size=64)
        config = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=8)
        train_config = enc.TrainConfigEnc(learning_rate=0.0, epochs=2, batch_size=4)
        model, _ = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=9)
        init = enc.init_params(config, tokenizer.vocab_size, seed=9)
        assert all(np.array_equal(model.params[k], init[k]) for k in init)

    def test_same_seed_bit_identical(self):
        pairs = self.small_pairs()
        tokenizer = enc.train_subword([t for t, _ in pairs], vocab_size=64)
        config = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16, max_length=8)
        train_config = enc.TrainConfigEnc(learning_rate=1e-3, epochs=3, batch_size=4)
        m1, r1 = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=1)
        m2, r2 = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=1)
        assert m1 == m2
        assert r1 == r2

    def test_report_tracks_every_epoch(self):
        pairs = self.small_pairs()
        tokenizer = enc.train_subword([t for t, _ in pairs], vocab_size=64)
        config = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=8)
        train_config = enc.TrainConfigEnc(learning_rate=1e-3, epochs=4, batch_size=4)
        _, report = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=0)
        assert len(report.epoch_train_losses) == 4
        assert len(report.epoch_dev_macro_f1) == 4
        assert all(0.0 <= f1 <= 1.0 for f1 in report.epoch_dev_macro_f1)

    def test_non_finite_loss_fails_at_its_epoch(self):
        pairs = self.small_pairs()
        tokenizer = enc.train_subword([t for t, _ in pairs], vocab_size=64)
        config = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=8)
        train_config = enc.TrainConfigEnc(learning_rate=1e300, epochs=3, batch_size=4)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match="epoch 1:"
        ):
            enc.train_encoder(pairs, pairs, tokenizer, config, train_config)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_forbidden(self, value):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            enc.TrainConfigEnc(learning_rate=value)

    def test_empty_train_or_dev_rejected(self):
        tokenizer = enc.train_subword(["a"], vocab_size=8)
        with pytest.raises(EmptyData):
            enc.train_encoder([], [("a", Label(1))], tokenizer)
        with pytest.raises(EmptyData):
            enc.train_encoder([("a", Label(1))], [], tokenizer)

    def test_dropout_training_is_seeded_and_eval_deterministic(self):
        pairs = self.small_pairs()
        tokenizer = enc.train_subword([t for t, _ in pairs], vocab_size=64)
        config = enc.EncoderConfig(
            d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=8, dropout=0.2
        )
        train_config = enc.TrainConfigEnc(learning_rate=1e-3, epochs=2, batch_size=4)
        m1, _ = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=2)
        m2, _ = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=2)
        assert m1 == m2

    def test_defaults_match_published_regime(self):
        config = enc.TrainConfigEnc()
        assert config.learning_rate == 1e-5
        assert config.epochs == 5
        assert config.batch_size == 32
        assert enc.EncoderConfig().max_length == 128


def reference_forward_batch(params, config, ids, mask, dropout_rng=None):
    """The full-width forward pass: every layer, the last one included,
    computes queries, attention rows and activations for every position,
    though the head reads only the CLS row. The oracle for the CLS-only last
    layer in forward_batch; its cache feeds reference_backward_batch."""
    scale = 1.0 / np.sqrt(config.d_head)
    score_bias = (mask[:, None, None, :] - 1.0) * enc._MASK_BIAS
    drop_rate = config.dropout if dropout_rng is not None else 0.0

    batch, length = ids.shape

    def dropout_mask():
        if drop_rate == 0.0:
            return None
        shape = (batch, config.max_length, config.d_model)
        keep = dropout_rng.random(shape)[:, :length, :] >= drop_rate
        return keep.astype(np.float64) / (1.0 - drop_rate)

    x = params["tok_emb"][ids] + params["pos_emb"][None, :length, :]
    layers = []
    for i in range(config.n_layers):
        p = f"layer{i}."
        x_in = x
        q = x @ params[p + "attn.wq"] + params[p + "attn.bq"]
        k = x @ params[p + "attn.wk"] + params[p + "attn.bk"]
        v = x @ params[p + "attn.wv"] + params[p + "attn.bv"]
        qh = enc._split_heads(q, config.n_heads)
        kh = enc._split_heads(k, config.n_heads)
        vh = enc._split_heads(v, config.n_heads)
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale + score_bias
        scores -= scores.max(axis=-1, keepdims=True)
        exp = np.exp(scores)
        attn = exp / exp.sum(axis=-1, keepdims=True)
        ctx = enc._merge_heads(attn @ vh)
        proj = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        attn_drop = dropout_mask()
        if attn_drop is not None:
            proj = proj * attn_drop
        x1, ln1 = enc._layer_norm(
            x_in + proj, params[p + "ln1.gamma"], params[p + "ln1.beta"]
        )
        h1 = x1 @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        h1r = np.maximum(h1, 0.0)
        f = h1r @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        ffn_drop = dropout_mask()
        if ffn_drop is not None:
            f = f * ffn_drop
        x, ln2 = enc._layer_norm(
            x1 + f, params[p + "ln2.gamma"], params[p + "ln2.beta"]
        )
        layers.append(
            dict(
                x_in=x_in, qh=qh, kh=kh, vh=vh, attn=attn, ctx=ctx,
                ln1=ln1, x1=x1, h1=h1, h1r=h1r, ln2=ln2,
                attn_drop=attn_drop, ffn_drop=ffn_drop,
            )
        )
    cls = x[:, 0, :]
    logits = cls @ params["head.w"] + params["head.b"]
    probs = 1.0 / (1.0 + np.exp(-np.abs(logits)))
    probs = np.where(logits >= 0, probs, 1.0 - probs)
    probs = np.clip(probs, 5e-324, np.nextafter(1.0, 0.0))
    cache = dict(ids=ids, layers=layers, cls=cls, logits=logits)
    return probs, cache


def reference_backward_batch(params, config, cache, probs, labels):
    """The full-width einsum formulation of the backward pass, run on the
    cache of reference_forward_batch: every weight gradient contracts batch
    and position axes in one einsum, and the rows of the last layer that
    the head never reads carry exact zeros. The oracle for the 2-D matrix
    products and the CLS-only last layer in backward_batch."""
    ids = cache["ids"]
    batch, length = ids.shape
    scale = 1.0 / np.sqrt(config.d_head)

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    dlogits = (probs - labels) / batch
    grads["head.w"] += cache["cls"].T @ dlogits
    grads["head.b"] += dlogits.sum()
    dx = np.zeros((batch, length, config.d_model))
    dx[:, 0, :] = dlogits[:, None] * params["head.w"][None, :]

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        layer = cache["layers"][i]
        dr2, dg2, db2 = enc._layer_norm_backward(
            dx, layer["ln2"], params[p + "ln2.gamma"]
        )
        grads[p + "ln2.gamma"] += dg2
        grads[p + "ln2.beta"] += db2

        df = dr2 if layer["ffn_drop"] is None else dr2 * layer["ffn_drop"]
        grads[p + "ffn.w2"] += np.einsum("blf,bld->fd", layer["h1r"], df)
        grads[p + "ffn.b2"] += df.sum(axis=(0, 1))
        dh1 = (df @ params[p + "ffn.w2"].T) * (layer["h1"] > 0.0)
        grads[p + "ffn.w1"] += np.einsum("bld,blf->df", layer["x1"], dh1)
        grads[p + "ffn.b1"] += dh1.sum(axis=(0, 1))
        dx1 = dr2 + dh1 @ params[p + "ffn.w1"].T

        dr1, dg1, db1 = enc._layer_norm_backward(
            dx1, layer["ln1"], params[p + "ln1.gamma"]
        )
        grads[p + "ln1.gamma"] += dg1
        grads[p + "ln1.beta"] += db1

        dproj = dr1 if layer["attn_drop"] is None else dr1 * layer["attn_drop"]
        grads[p + "attn.wo"] += np.einsum("bld,ble->de", layer["ctx"], dproj)
        grads[p + "attn.bo"] += dproj.sum(axis=(0, 1))
        dctx = enc._split_heads(dproj @ params[p + "attn.wo"].T, config.n_heads)

        attn, vh, qh, kh = layer["attn"], layer["vh"], layer["qh"], layer["kh"]
        dattn = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = np.einsum("bhql,bhqd->bhld", attn, dctx)
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dqh = dscores @ kh * scale
        dkh = np.einsum("bhql,bhqd->bhld", dscores, qh) * scale

        x_in = layer["x_in"]
        dx = dr1
        for name, dhead in (("wq", dqh), ("wk", dkh), ("wv", dvh)):
            dmat = enc._merge_heads(dhead)
            grads[p + f"attn.{name}"] += np.einsum("bld,ble->de", x_in, dmat)
            grads[p + f"attn.b{name[1]}"] += dmat.sum(axis=(0, 1))
            dx = dx + dmat @ params[p + f"attn.{name}"].T

    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:length] += dx.sum(axis=0)
    return grads


def mixed_length_batch(vocab_size, n, max_length, seed):
    """n rows of random ids whose real lengths run from 1 to max_length."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, vocab_size, size=(n, max_length))
    ids[:, 0] = enc.CLS_ID
    lengths = rng.integers(1, max_length + 1, size=n)
    mask = (np.arange(max_length)[None, :] < lengths[:, None]).astype(np.float64)
    ids[mask == 0.0] = enc.PAD_ID
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    return ids, mask, labels


WIDE_CONFIG = enc.EncoderConfig(
    d_model=16, n_heads=4, n_layers=2, d_ff=24, max_length=12
)


class TestBackwardMatchesEinsumReference:
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gemm_gradients_match_einsum(self, toy_tokenizer, dropout, seed):
        config = enc.EncoderConfig(
            d_model=16, n_heads=4, n_layers=2, d_ff=24, max_length=12,
            dropout=dropout,
        )
        ids, mask, labels = mixed_length_batch(
            toy_tokenizer.vocab_size, 6, config.max_length, seed
        )
        ids, mask = enc.trim_padding(ids, mask)
        params = enc.init_params(config, toy_tokenizer.vocab_size, seed=seed)
        rng = np.random.default_rng(seed) if dropout else None
        probs, cache = enc.forward_batch(params, config, ids, mask, dropout_rng=rng)
        grads = enc.backward_batch(params, config, cache, probs, labels)
        rng = np.random.default_rng(seed) if dropout else None
        ref_probs, ref_cache = reference_forward_batch(
            params, config, ids, mask, dropout_rng=rng
        )
        expected = reference_backward_batch(
            params, config, ref_cache, ref_probs, labels
        )
        assert grads.keys() == expected.keys()
        for name in grads:
            np.testing.assert_allclose(
                grads[name], expected[name], rtol=0, atol=1e-12, err_msg=name
            )

    def test_trimmed_widths_down_to_one(self, toy_tokenizer):
        params = enc.init_params(WIDE_CONFIG, toy_tokenizer.vocab_size, seed=4)
        for width in (1, 2, 7, WIDE_CONFIG.max_length):
            ids, mask, labels = mixed_length_batch(
                toy_tokenizer.vocab_size, 5, width, seed=width
            )
            probs, cache = enc.forward_batch(params, WIDE_CONFIG, ids, mask)
            grads = enc.backward_batch(params, WIDE_CONFIG, cache, probs, labels)
            ref_probs, ref_cache = reference_forward_batch(
                params, WIDE_CONFIG, ids, mask
            )
            expected = reference_backward_batch(
                params, WIDE_CONFIG, ref_cache, ref_probs, labels
            )
            for name in grads:
                np.testing.assert_allclose(
                    grads[name], expected[name], rtol=0, atol=1e-12,
                    err_msg=f"{name} at width {width}",
                )


class TestClsOnlyLastLayer:
    # One head and one-wide heads are the two edges of the (d, heads,
    # d_head) weight reshape in the folded last layer.
    @pytest.mark.parametrize("n_heads", [1, 2, 4, 16])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_matches_full_width_reference(
        self, toy_tokenizer, n_layers, dropout, n_heads
    ):
        config = enc.EncoderConfig(
            d_model=16, n_heads=n_heads, n_layers=n_layers, d_ff=24, max_length=12,
            dropout=dropout,
        )
        params = enc.init_params(config, toy_tokenizer.vocab_size, seed=n_layers)
        for width in range(1, config.max_length + 1):
            ids, mask, labels = mixed_length_batch(
                toy_tokenizer.vocab_size, 6, width, seed=width
            )
            rng, ref_rng = (
                (np.random.default_rng(width), np.random.default_rng(width))
                if dropout else (None, None)
            )
            probs, cache = enc.forward_batch(params, config, ids, mask, dropout_rng=rng)
            grads = enc.backward_batch(params, config, cache, probs, labels)
            ref_probs, ref_cache = reference_forward_batch(
                params, config, ids, mask, dropout_rng=ref_rng
            )
            expected = reference_backward_batch(
                params, config, ref_cache, ref_probs, labels
            )
            np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
            assert grads.keys() == expected.keys()
            for name in grads:
                np.testing.assert_allclose(
                    grads[name], expected[name], rtol=0, atol=1e-12,
                    err_msg=f"{name} at width {width}",
                )
            if dropout:
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_last_layer_key_bias_has_no_effect(self, toy_tokenizer, n_layers):
        # Softmax cancels the key bias, so the folded scores drop it: the
        # probabilities do not depend on it, and its gradient is exactly 0.
        config = enc.EncoderConfig(
            d_model=16, n_heads=4, n_layers=n_layers, d_ff=24, max_length=12
        )
        params = enc.init_params(config, toy_tokenizer.vocab_size, seed=9)
        ids, mask, labels = mixed_length_batch(
            toy_tokenizer.vocab_size, 6, config.max_length, seed=9
        )
        probs, _ = enc.forward_batch(params, config, ids, mask)
        bias = f"layer{n_layers - 1}.attn.bk"
        params[bias] = np.random.default_rng(9).standard_normal(config.d_model) * 5.0
        moved, cache = enc.forward_batch(params, config, ids, mask)
        assert_same_array(moved, probs)
        grads = enc.backward_batch(params, config, cache, moved, labels)
        assert np.all(grads[bias] == 0.0)


class TestBlockedPrediction:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    def test_blocks_match_one_forward_call(self, toy_tokenizer, n):
        theta = enc.init_theta(WIDE_CONFIG, toy_tokenizer.vocab_size, seed=8)
        model = enc.EncoderModel(theta, WIDE_CONFIG, toy_tokenizer.vocab_size)
        params = model.params
        ids, mask, _ = mixed_length_batch(
            toy_tokenizer.vocab_size, n, WIDE_CONFIG.max_length, seed=n
        )
        expected, _ = enc.forward_batch(params, WIDE_CONFIG, ids, mask)
        probs = enc.predict_probs(model, ids, mask)
        assert probs.shape == (n,)
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)

    def test_no_rows_gives_no_probabilities(self, toy_tokenizer):
        theta = enc.init_theta(WIDE_CONFIG, toy_tokenizer.vocab_size, seed=8)
        model = enc.EncoderModel(theta, WIDE_CONFIG, toy_tokenizer.vocab_size)
        width = WIDE_CONFIG.max_length
        probs = enc.predict_probs(
            model, np.zeros((0, width), dtype=np.int64), np.zeros((0, width))
        )
        assert probs.shape == (0,)


def reference_train_encoder(train, dev, tokenizer, enc_config, train_config, seed):
    """Training with one gradient dict of fresh zero arrays per step and one
    update per tensor, on per-row encodings. The oracle for the flat
    parameter and gradient vectors in train_encoder."""
    max_length = enc_config.max_length
    train_ids, train_mask = reference_encode_batch(
        tokenizer, [t for t, _ in train], max_length
    )
    train_labels = np.array([float(y) for _, y in train])
    dev_ids, dev_mask = reference_encode_batch(
        tokenizer, [t for t, _ in dev], max_length
    )
    dev_gold = [label for _, label in dev]

    rng = np.random.default_rng(seed)
    theta = enc.init_theta(enc_config, tokenizer.vocab_size, seed)
    report = TrainReport()
    model = enc.EncoderModel(theta, enc_config, tokenizer.vocab_size)
    params = model.params
    for _ in range(train_config.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(order), train_config.batch_size):
            pick = order[start : start + train_config.batch_size]
            ids, mask = enc.trim_padding(train_ids[pick], train_mask[pick])
            probs, cache = enc.forward_batch(
                params, enc_config, ids, mask, dropout_rng=rng
            )
            grads = enc.backward_batch(
                params, enc_config, cache, probs, train_labels[pick]
            )
            for name in params:
                params[name] -= train_config.learning_rate * grads[name]
        report.epoch_train_losses.append(
            enc.batch_loss(enc.predict_probs(model, train_ids, train_mask), train_labels)
        )
        report.epoch_dev_macro_f1.append(
            decided_macro_f1(dev_gold, enc.predict_probs(model, dev_ids, dev_mask))
        )
    return model, report


class TestFlatTrainingStep:
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_matches_per_tensor_reference_bit_for_bit(self, n_layers, dropout):
        split = synth_corpus(
            21, 10,
            profile=VocabProfile(words_min=1, words_max=9, url_rate=0.0, punct_rate=0.0),
        )
        pairs = [(preprocess(ex.text), ex.label) for ex in split]
        tokenizer = enc.train_subword([t for t, _ in pairs[:14]], vocab_size=48)
        config = enc.EncoderConfig(
            d_model=8, n_heads=2, n_layers=n_layers, d_ff=16, max_length=10,
            dropout=dropout,
        )
        train_config = enc.TrainConfigEnc(learning_rate=5e-2, epochs=3, batch_size=3)
        train, dev = pairs[:14], pairs[14:]
        model, report = enc.train_encoder(
            train, dev, tokenizer, config, train_config, seed=n_layers
        )
        ref_model, ref_report = reference_train_encoder(
            train, dev, enc.SubwordTokenizer(tokenizer.pieces, tokenizer.merges),
            config, train_config, seed=n_layers,
        )
        assert list(model.params) == list(ref_model.params)
        for name, value in ref_model.params.items():
            assert_same_array(model.params[name], value)
        for field_name in ("epoch_train_losses", "epoch_dev_macro_f1"):
            assert_same_array(
                np.array(getattr(report, field_name)),
                np.array(getattr(ref_report, field_name)),
            )

    def test_gradients_add_into_the_given_buffers(self, toy_tokenizer):
        params = enc.init_params(WIDE_CONFIG, toy_tokenizer.vocab_size, seed=5)
        ids, mask, labels = mixed_length_batch(
            toy_tokenizer.vocab_size, 4, WIDE_CONFIG.max_length, seed=5
        )
        probs, cache = enc.forward_batch(params, WIDE_CONFIG, ids, mask)
        expected = enc.backward_batch(params, WIDE_CONFIG, cache, probs, labels)
        buffers = {name: np.zeros_like(value) for name, value in params.items()}
        returned = enc.backward_batch(
            params, WIDE_CONFIG, cache, probs, labels, buffers
        )
        assert returned is buffers
        for name, value in expected.items():
            assert_same_array(buffers[name], value)


class TestEmbeddingGradient:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(1, 6),
        batch=st.integers(0, 5),
        length=st.integers(1, 7),
        d=st.integers(1, 5),
    )
    def test_bincount_equals_add_at(self, seed, vocab_size, batch, length, d):
        # A vocabulary of at most six ids makes repeats the rule.
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, vocab_size, size=(batch, length))
        dx = rng.standard_normal((batch, length, d)) * 10.0 ** rng.integers(
            -8, 9, size=(batch, length, d)
        )
        expected = np.zeros((vocab_size, d))
        np.add.at(expected, ids, dx)
        assert_same_array(enc.embedding_gradient(ids, dx, vocab_size), expected)


def reference_layer_norm(x, gamma, beta):
    """Layer norm that subtracts the mean twice, once for the variance and
    once for xhat. The oracle for the single subtraction in _layer_norm."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + enc._LN_EPS)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1, 1, 3), (2, 5, 8), (4, 1, 16)]))
def test_layer_norm_matches_two_subtraction_reference(seed, shape):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 3.0 + 1.0
    gamma, beta = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
    out, (xhat, inv) = enc._layer_norm(x, gamma, beta)
    ref_out, (ref_xhat, ref_inv) = reference_layer_norm(x, gamma, beta)
    assert_same_array(out, ref_out)
    assert_same_array(xhat, ref_xhat)
    assert_same_array(inv, ref_inv)
