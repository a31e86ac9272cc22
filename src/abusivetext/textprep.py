"""Deterministic text cleaning: URL removal, special-character stripping, and
whitespace normalization, in that fixed order.

All rules are Unicode-aware so Tamil and Malayalam script content (letters
and their dependent vowel signs) survives intact. Removed characters become
spaces, never deletions, so "word!word" does not fuse into "wordword";
a final whitespace collapse cleans up the slack.

Every step is word-local, which ``preprocess_all`` relies on: a URL match
stops at whitespace (the regex and ``str.split`` agree on what that is), the
translate table maps each code point to one and whitespace to itself, and the
collapse is split/join. A future step must keep this, or ``preprocess_all``
must stop cleaning word by word.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .checks import check_fields

# A URL is http://, https://, or www. followed by everything up to whitespace.
_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)
# Under IGNORECASE, ":", "/" and "." match only themselves and "w" only w or
# W, so a text the regex can match holds "://" or, lowercased, "www.".


@dataclass(frozen=True)
class CleanPolicy:
    """Which cleaning steps to apply. The defaults enable the full pipeline.

    strip_digits is off by default: digits carry signal in code-mixed
    social-media text (years, counts), while emoji and punctuation do not.
    """

    remove_urls: bool = True
    strip_specials: bool = True
    collapse_whitespace: bool = True
    lowercase_latin: bool = True
    strip_digits: bool = False

    def __post_init__(self):
        check_fields(self)


DEFAULT_POLICY = CleanPolicy()


def remove_urls(text: str) -> str:
    """Replace every URL (up to the next whitespace) with a single space.

    Texts that cannot hold a URL skip the regex."""
    if "://" not in text and "www." not in text.lower():
        return text
    return _URL_RE.sub(" ", text)


class _CharMap(dict):
    """str.translate table for the per-code-point steps: strip specials,
    then strip digits, then lowercase Latin. Each code point is worked out
    on first sight and kept, so a text is cleaned in one translate pass."""

    def __init__(
        self, strip_specials: bool, strip_digits: bool, lowercase_latin: bool
    ):
        super().__init__()
        self.steps = (strip_specials, strip_digits, lowercase_latin)

    def __missing__(self, code: int) -> str:
        strip_specials, strip_digits, lowercase_latin = self.steps
        ch = chr(code)
        category = unicodedata.category(ch)
        # Keep letters of any script, combining marks (Tamil/Malayalam vowel
        # signs are Mc/Mn), decimal digits, and whitespace.
        if strip_specials and not (
            category[0] in ("L", "M") or category == "Nd" or ch.isspace()
        ):
            ch = " "
        if strip_digits and unicodedata.category(ch) == "Nd":
            ch = " "
        # Latin-only lowercasing: Tamil/Malayalam have no case, and other
        # cased scripts are left alone. One-to-many lowerings (e.g. U+0130)
        # are skipped so cleaning never grows the text.
        if lowercase_latin and "LATIN" in unicodedata.name(ch, ""):
            lowered = ch.lower()
            if len(lowered) == 1:
                ch = lowered
        self[code] = ch
        return ch


@lru_cache(maxsize=None)
def _char_map(
    strip_specials: bool, strip_digits: bool, lowercase_latin: bool
) -> _CharMap:
    return _CharMap(strip_specials, strip_digits, lowercase_latin)


def collapse_whitespace(text: str) -> str:
    """Collapse every whitespace run to one space and trim the ends."""
    return " ".join(text.split())


def preprocess(text: str, policy: CleanPolicy = DEFAULT_POLICY) -> str:
    """Apply the enabled cleaning steps in their fixed order.

    URLs go first so their punctuation is not shredded into stray tokens,
    then special characters, digit stripping (when enabled), Latin
    lowercasing, and finally whitespace collapse.
    """
    if policy.remove_urls:
        text = remove_urls(text)
    steps = (policy.strip_specials, policy.strip_digits, policy.lowercase_latin)
    if any(steps):
        text = text.translate(_char_map(*steps))
    if policy.collapse_whitespace:
        text = collapse_whitespace(text)
    return text


def preprocess_all(texts: Sequence[str], policy: CleanPolicy = DEFAULT_POLICY) -> list[str]:
    """preprocess of each text. With the whitespace collapse on, each distinct
    word is cleaned once per call, kept in a dict that dies with the call, and
    each text is the join of its words' non-empty results."""
    if not policy.collapse_whitespace:
        return [preprocess(text, policy) for text in texts]
    memo: dict[str, str] = {}
    cleaned = []
    for text in texts:
        words = text.split()
        for word in words:
            if word not in memo:
                memo[word] = preprocess(word, policy)
        cleaned.append(" ".join(filter(None, map(memo.__getitem__, words))))
    return cleaned
