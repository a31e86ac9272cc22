"""Cleaning rules, their fixed composition order, and Unicode-safety properties."""
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abusivetext import textprep
from abusivetext.textprep import (
    _URL_RE,
    CleanPolicy,
    DEFAULT_POLICY,
    collapse_whitespace,
    preprocess,
    preprocess_all,
    remove_urls,
)

TAMIL_WORD = "அம்மா"  # word with a dependent vowel sign
MALAYALAM_WORD = "അമ്മ"


def strip_specials(text: str) -> str:
    """preprocess with special-character stripping as its only step."""
    return preprocess(text, CleanPolicy(remove_urls=False, collapse_whitespace=False, lowercase_latin=False))


def lowercase_latin(text: str) -> str:
    """preprocess with Latin lowercasing as its only step."""
    return preprocess(text, CleanPolicy(remove_urls=False, strip_specials=False, collapse_whitespace=False))


def dravidian_letters(text: str) -> Counter:
    """Multiset of Tamil/Malayalam block code points in a string."""
    return Counter(
        ch for ch in text if "஀" <= ch <= "௿" or "ഀ" <= ch <= "ൿ"
    )


# Mixed pool of code points so random strings actually exercise the scripts.
_CHAR_POOL = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0x0B80, max_codepoint=0x0BFF),
    st.characters(min_codepoint=0x0D00, max_codepoint=0x0D7F),
)
random_text = st.text(alphabet=_CHAR_POOL, max_size=60)


# Fragments of URL prefixes in odd cases, and the code points that fold to
# one of their letters under IGNORECASE: U+017F (long s) and U+212A (Kelvin).
URL_PIECES = st.one_of(
    st.sampled_from([
        "http", "HTTPS", "httpſ", "://", ":/", "/", ":", "www", "WWW", "wW",
        "w", ".", " ", "ſ", "\u212a", "s", "x", "İ",
    ]),
    st.characters(),
)


class TestRemoveUrls:
    def test_url_becomes_single_space(self):
        # Derived by hand: "see " + " " + " now" keeps both neighbors' spaces.
        assert remove_urls("see https://t.co/abc now") == "see   now"

    def test_empty_identity(self):
        assert remove_urls("") == ""

    def test_no_url_fixed_point(self):
        assert remove_urls("no links here") == "no links here"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("www.example.com/path rest", "  rest"),
            ("HTTP://SHOUTY.example", " "),
            ("pre http://a.b/c?q=1#f post", "pre   post"),
            ("glued-www.host.tld", "glued- "),
        ],
    )
    def test_variants(self, text, expected):
        assert remove_urls(text) == expected

    @settings(max_examples=500)
    @given(st.lists(URL_PIECES, max_size=12).map("".join))
    @example("WWW.")
    @example("see HTTPS://x")
    @example("httpſ://x.y")
    @example("\u212a www.x")
    @example("wWw.Host")
    def test_skipping_the_regex_changes_nothing(self, text):
        # The full regex on every text, with no pre-check.
        assert remove_urls(text) == _URL_RE.sub(" ", text)


class TestStripSpecials:
    def test_punctuation_becomes_spaces(self):
        assert strip_specials("wow!!! great???") == "wow    great   "

    def test_tamil_word_with_vowel_signs_unchanged(self):
        assert strip_specials(TAMIL_WORD) == TAMIL_WORD
        assert strip_specials(MALAYALAM_WORD) == MALAYALAM_WORD

    def test_letters_and_digits_preserved(self):
        assert strip_specials("a1b2") == "a1b2"

    def test_emoji_removed(self):
        assert strip_specials("nice \U0001f600 video") == "nice   video"

    @given(random_text)
    def test_matches_per_character_rule(self, text):
        # Reference oracle: the survival rule applied one code point at a time.
        expected = "".join(
            ch
            if (
                unicodedata.category(ch).startswith(("L", "M"))
                or unicodedata.category(ch) == "Nd"
                or ch.isspace()
            )
            else " "
            for ch in text
        )
        assert strip_specials(text) == expected


class TestCleanPolicy:
    @pytest.mark.parametrize("value", [None, [], {}, "yes", 1])
    def test_steps_must_be_booleans(self, value):
        with pytest.raises(ValueError, match="strip_digits must be true or false"):
            CleanPolicy(strip_digits=value)


class TestPreprocess:
    def test_composed_pipeline(self):
        # remove_urls -> strip specials -> lowercase -> collapse, by hand.
        assert preprocess("Check https://x.co NOW!!") == "check now"

    def test_clean_string_fixed_point(self):
        assert preprocess("already clean text") == "already clean text"

    def test_all_punctuation_collapses_to_empty(self):
        assert preprocess("!?!... ***") == ""

    def test_latin_lowercased_dravidian_untouched(self):
        assert preprocess(f"WATCH {TAMIL_WORD} Now") == f"watch {TAMIL_WORD} now"

    def test_digits_kept_by_default_stripped_on_request(self):
        assert preprocess("top 10 list") == "top 10 list"
        policy = CleanPolicy(strip_digits=True)
        assert preprocess("top 10 list", policy) == "top list"

    def test_policy_can_disable_steps(self):
        policy = CleanPolicy(
            remove_urls=False, strip_specials=False,
            collapse_whitespace=False, lowercase_latin=False,
        )
        assert preprocess("A  B!! www.x.io", policy) == "A  B!! www.x.io"

    def test_urls_removed_before_specials_would_shred_them(self):
        # If stripping ran first, "https" "t" "co" "abc" would survive as tokens.
        assert "t co" not in preprocess("see https://t.co/abc now")


class TestProperties:
    @given(random_text)
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = preprocess(text)
        assert preprocess(once) == once

    @given(random_text)
    @settings(max_examples=300)
    def test_output_whitespace_is_normalized(self, text):
        out = preprocess(text)
        assert "  " not in out
        assert out == out.strip()

    @given(random_text)
    @settings(max_examples=300)
    def test_length_never_increases(self, text):
        assert len(preprocess(text)) <= len(text)

    @given(random_text)
    @settings(max_examples=300)
    def test_script_preservation_is_submultiset(self, text):
        out_letters = dravidian_letters(preprocess(text))
        in_letters = dravidian_letters(text)
        assert all(out_letters[ch] <= in_letters[ch] for ch in out_letters)

    @given(st.lists(st.sampled_from([TAMIL_WORD, MALAYALAM_WORD, "hello", "x!y"]),
                    max_size=8))
    def test_script_preserved_exactly_when_no_urls(self, words):
        text = " ".join(words)
        assert dravidian_letters(preprocess(text)) == dravidian_letters(text)

    def test_url_may_eat_script_content(self):
        # Script code points inside a removed URL are the allowed exception.
        text = f"www.site/{TAMIL_WORD} ok"
        assert dravidian_letters(preprocess(text)) == Counter()

    @given(random_text)
    @settings(max_examples=200)
    def test_lowercase_latin_is_idempotent(self, text):
        once = lowercase_latin(text)
        assert lowercase_latin(once) == once

    def test_one_to_many_lowercase_is_skipped(self):
        # U+0130 lowercases to two code points; it is left alone so cleaning
        # never grows the text.
        assert lowercase_latin("İ") == "İ"

    @given(random_text)
    def test_collapse_whitespace_result_has_single_spaces(self, text):
        out = collapse_whitespace(text)
        assert "  " not in out and out == out.strip()


def reference_strip_specials(text: str) -> str:
    return "".join(
        ch
        if unicodedata.category(ch)[0] in ("L", "M")
        or unicodedata.category(ch) == "Nd"
        or ch.isspace()
        else " "
        for ch in text
    )


def reference_strip_digits(text: str) -> str:
    return "".join(" " if unicodedata.category(ch) == "Nd" else ch for ch in text)


def reference_lowercase_latin(text: str) -> str:
    def lower(ch: str) -> str:
        if "LATIN" not in unicodedata.name(ch, ""):
            return ch
        lowered = ch.lower()
        return lowered if len(lowered) == 1 else ch

    return "".join(lower(ch) for ch in text)


def reference_preprocess(text: str, policy: CleanPolicy) -> str:
    """The cleaning steps one pass each, one code point at a time: the
    oracle for the single translate pass in preprocess."""
    if policy.remove_urls:
        text = remove_urls(text)
    if policy.strip_specials:
        text = reference_strip_specials(text)
    if policy.strip_digits:
        text = reference_strip_digits(text)
    if policy.lowercase_latin:
        text = reference_lowercase_latin(text)
    if policy.collapse_whitespace:
        text = collapse_whitespace(text)
    return text


# Arbitrary Unicode plus the code points whose handling differs by step:
# astral symbols and letters, Tamil/Malayalam letters and vowel signs, the
# one-to-many lowering U+0130, Nd digits of other scripts, and odd spaces.
_ANY_CHAR = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0x10000),
    st.characters(min_codepoint=0x0B80, max_codepoint=0x0BFF),
    st.characters(min_codepoint=0x0D00, max_codepoint=0x0D7F),
    st.sampled_from(
        ["İ", "ẞ", "Ａ", "٣", "௧", "൬", "१", "𝟘", "\u2028", "\xa0", "\x85", "!"]
    ),
)
_POLICIES = st.builds(
    CleanPolicy,
    remove_urls=st.booleans(),
    strip_specials=st.booleans(),
    collapse_whitespace=st.booleans(),
    lowercase_latin=st.booleans(),
    strip_digits=st.booleans(),
)


class TestTranslateTable:
    @given(
        st.text(alphabet=_ANY_CHAR, max_size=60)
        | st.builds(
            lambda a, b: a + " https://x.co/" + b,
            st.text(_ANY_CHAR, max_size=30),
            st.text(_ANY_CHAR, max_size=30),
        ),
        _POLICIES,
    )
    @settings(max_examples=500)
    def test_matches_per_character_steps(self, text, policy):
        assert preprocess(text, policy) == reference_preprocess(text, policy)

    @given(st.text(alphabet=_ANY_CHAR, max_size=60))
    def test_public_steps_match_per_character_steps(self, text):
        assert strip_specials(text) == reference_strip_specials(text)
        assert lowercase_latin(text) == reference_lowercase_latin(text)

    def test_every_policy_on_fixed_script_mix(self):
        text = "İSTANBUL ١٢٣ ௧௨ Naan அம்மா അമ്മ 😀 x!y www.A.b/ç ẞ 𝟘"
        for flags in range(32):
            policy = CleanPolicy(*(bool(flags >> bit & 1) for bit in range(5)))
            assert preprocess(text, policy) == reference_preprocess(text, policy)


# Whitespace that str.split and the URL regex both split on, URL prefixes that
# may start mid-word (U+017F folds to "s" under IGNORECASE), and word pieces.
_BATCH_PIECES = st.one_of(
    st.sampled_from([
        "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2028",
        "\u3000", " ", "\t", "http://", "WWW.", "httpſ://", "a", "Ab", "x!y",
        "İ", "٣", TAMIL_WORD, "😀",
    ]),
    _ANY_CHAR,
)
_BATCH_TEXTS = st.lists(_BATCH_PIECES, max_size=16).map("".join)


class TestPreprocessAll:
    def test_every_code_point_in_one_batch(self):
        # Each code point inside a word, and each after "www." in a run of
        # URLs: a whitespace code point must end the URL it follows, exactly
        # as it ends the word, and no other code point may.
        texts = []
        for start in range(0, 0x110000, 64):
            chunk = [chr(c) for c in range(start, start + 64)]
            texts += ["a".join(chunk), "".join(f"www.{ch}a" for ch in chunk)]
        assert preprocess_all(texts) == [preprocess(t) for t in texts]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_BATCH_TEXTS, max_size=8), st.integers(0, 31))
    def test_equals_per_text_preprocess_under_every_policy(self, texts, flags):
        # Repeated texts share words, so the memo is read as well as filled.
        policy = CleanPolicy(*(bool(flags >> bit & 1) for bit in range(5)))
        texts = texts + texts[:2]
        assert preprocess_all(texts, policy) == [preprocess(t, policy) for t in texts]

    def test_each_call_cleans_its_distinct_words_anew(self, monkeypatch):
        seen = []

        def counting(text, policy=DEFAULT_POLICY):
            seen.append(text)
            return preprocess(text, policy)

        monkeypatch.setattr(textprep, "preprocess", counting)
        texts = ["Hello hello  world", "world HELLO", "", "x!y hello"]
        first = preprocess_all(texts)
        assert sorted(seen) == ["HELLO", "Hello", "hello", "world", "x!y"]
        seen.clear()
        assert preprocess_all(texts) == first == ["hello hello world", "world hello", "", "x y hello"]
        assert sorted(seen) == ["HELLO", "Hello", "hello", "world", "x!y"]

    def test_without_collapse_each_text_is_cleaned_whole(self, monkeypatch):
        seen = []
        monkeypatch.setattr(textprep, "preprocess", lambda text, policy: seen.append(text))
        policy = CleanPolicy(collapse_whitespace=False)
        preprocess_all(["a  b", "a  b"], policy)
        assert seen == ["a  b", "a  b"]
