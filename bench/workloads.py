"""Workload definitions and their seeded input generators.

The generators use only the standard library's ``random.Random`` and never
call into ``abusivetext`` (in particular not ``corpus.synth_corpus``), so a
change to the package's own generator cannot shift a workload. The program
under test sees only the TSV and run-config files written here.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ABUSIVE = "Abusive"
NON_ABUSIVE = "Non-Abusive"

# --- synth-shaped corpus ----------------------------------------------------
# Shaped like the README synthetic corpus: two disjoint 12-word class pools,
# a shared filler pool that includes Tamil and Malayalam words, 4-10 words
# per row, and URL / punctuation noise. Almost every word repeats, so the
# cleaned corpus has about 48 distinct content words.
_SYNTH_ABUSIVE = (
    "brakk", "sloven", "grimsel", "vortag", "nubbit", "krass",
    "poltry", "skarn", "mudrel", "zedwik", "frosk", "tagroth",
)
_SYNTH_NON_ABUSIVE = (
    "amberly", "solvine", "pellum", "riverin", "gladsome", "tavolin",
    "mirel", "sunwick", "orlanth", "velmira", "kindrel", "lumette",
)
_SYNTH_FILLER = (
    "this", "clip", "track", "honestly", "reply", "view", "tonight",
    "again", "everyone", "page", "film", "part", "hero", "plot",
    "அருமை", "காட்சி", "இசை", "வேற", "ലെവൽ", "പടം", "ഗാനം", "ഇഷ്ടം",
)
_URL_HOSTS = ("https://t.co/", "http://bit.ly/", "www.example.org/")
_PUNCT_NOISE = ("!!!", "???", "...", "!!", "<3", ":)", "#tag")


def _synth_row(rng: random.Random, label: str) -> str:
    pool = _SYNTH_ABUSIVE if label == ABUSIVE else _SYNTH_NON_ABUSIVE
    n_words = rng.randint(4, 10)
    n_keywords = min(n_words, rng.randint(1, 3))
    words = [rng.choice(pool) for _ in range(n_keywords)]
    words += [rng.choice(_SYNTH_FILLER) for _ in range(n_words - n_keywords)]
    rng.shuffle(words)
    if rng.random() < 0.3:
        slot = rng.randrange(len(words))
        words[slot] += rng.choice(_PUNCT_NOISE)
    if rng.random() < 0.15:
        url = rng.choice(_URL_HOSTS) + format(rng.randrange(16**6), "06x")
        words.insert(rng.randrange(len(words) + 1), url)
    return " ".join(words)


# --- code-mixed Zipf corpus -------------------------------------------------
# Pseudo-words in three scripts: romanized Latin syllables, Tamil and
# Malayalam consonant + vowel-sign syllables (the vowel signs are combining
# marks, so cleaning keeps them).
_LATIN_ONSETS = ("k", "m", "p", "t", "n", "r", "l", "v", "s", "ch", "th", "zh", "nd", "ll", "")
_LATIN_VOWELS = ("a", "i", "u", "e", "o", "aa", "ee")
_TAMIL_CONSONANTS = tuple(chr(c) for c in (
    0x0B95, 0x0B99, 0x0B9A, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA,
    0x0BAE, 0x0BAF, 0x0BB0, 0x0BB2, 0x0BB5, 0x0BB4, 0x0BB3, 0x0BB1, 0x0BA9,
))
_TAMIL_SIGNS = ("",) + tuple(chr(c) for c in (
    0x0BBE, 0x0BBF, 0x0BC0, 0x0BC1, 0x0BC2, 0x0BC6, 0x0BC7, 0x0BC8, 0x0BCD,
))
_MALAYALAM_CONSONANTS = tuple(chr(c) for c in (
    0x0D15, 0x0D17, 0x0D1A, 0x0D1C, 0x0D1F, 0x0D21, 0x0D24, 0x0D26, 0x0D28,
    0x0D2A, 0x0D2C, 0x0D2E, 0x0D2F, 0x0D30, 0x0D32, 0x0D35, 0x0D33, 0x0D34,
))
_MALAYALAM_SIGNS = ("",) + tuple(chr(c) for c in (
    0x0D3E, 0x0D3F, 0x0D40, 0x0D41, 0x0D46, 0x0D47, 0x0D48, 0x0D4A, 0x0D4D,
))


def _pseudo_word(rng: random.Random) -> str:
    script = rng.random()
    n_syllables = rng.randint(2, 4)
    if script < 0.5:
        return "".join(
            rng.choice(_LATIN_ONSETS) + rng.choice(_LATIN_VOWELS)
            for _ in range(n_syllables)
        )
    consonants, signs = (
        (_TAMIL_CONSONANTS, _TAMIL_SIGNS) if script < 0.75
        else (_MALAYALAM_CONSONANTS, _MALAYALAM_SIGNS)
    )
    return "".join(
        rng.choice(consonants) + rng.choice(signs) for _ in range(n_syllables)
    )


class _ZipfLexicon:
    """A lexicon whose rank-r word is drawn with weight 1 / r**exponent, plus
    a small class-marker lexicon per label."""

    def __init__(self, rng: random.Random, size: int, markers: int, exponent: float):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size + 2 * markers:
            word = _pseudo_word(rng)
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.shared = words[:size]
        self.markers = {
            ABUSIVE: words[size : size + markers],
            NON_ABUSIVE: words[size + markers :],
        }
        self.shared_weights = _cumulative(size, exponent)
        self.marker_weights = _cumulative(markers, exponent)


def _cumulative(n: int, exponent: float) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank**exponent
        out.append(total)
    return out


def _zipf_row(rng: random.Random, lexicon: _ZipfLexicon, label: str) -> str:
    n_words = rng.randint(30, 60)
    words = []
    for _ in range(n_words):
        if rng.random() < 0.3:
            words.append(rng.choices(
                lexicon.markers[label], cum_weights=lexicon.marker_weights
            )[0])
        else:
            words.append(rng.choices(
                lexicon.shared, cum_weights=lexicon.shared_weights
            )[0])
    if rng.random() < 0.3:
        slot = rng.randrange(len(words))
        words[slot] += rng.choice(_PUNCT_NOISE)
    if rng.random() < 0.15:
        url = rng.choice(_URL_HOSTS) + format(rng.randrange(16**6), "06x")
        words.insert(rng.randrange(len(words) + 1), url)
    return " ".join(words)


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Arm:
    """One model arm of a workload: its name in metric names ("lr" / "enc"),
    the train command arguments after ``train``, and its macro-F1 floor."""

    name: str
    train_args: tuple[str, ...]
    f1_floor: float
    run_config: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "synth" or "zipf"
    rows: dict[str, int]  # split name -> rows per class
    arms: tuple[Arm, ...]
    zipf: dict = field(default_factory=dict)


def _enc_config(max_length: int, vocab: int, epochs: int, batch_size: int) -> dict:
    return {
        "train_path": "train.tsv",
        "dev_path": "dev.tsv",
        "model_path": "enc.bundle.json",
        "model_kind": "micro_encoder",
        "seed": 7,
        "encoder": {"d_model": 32, "n_heads": 2, "n_layers": 1, "d_ff": 64,
                    "max_length": max_length},
        "encoder_train": {"learning_rate": 5e-2, "epochs": epochs,
                          "batch_size": batch_size},
        "encoder_vocab_size": vocab,
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Rows are ~90% padding at max_length 128 and almost every word
        # repeats; BPE training is negligible.
        Workload(
            name="encoder_synth",
            corpus="synth",
            rows={"train": 100, "dev": 50, "test": 400},
            arms=(
                Arm(
                    name="enc",
                    train_args=("--config", "enc.json"),
                    f1_floor=0.3,
                    run_config=_enc_config(128, 512, epochs=5, batch_size=4),
                ),
            ),
        ),
        # Thousands of distinct words and rows that truncate: the load moves to
        # BPE training, bigram TF-IDF fit, wide LR batches and large bundles.
        Workload(
            name="wide_codemixed",
            corpus="zipf",
            rows={"train": 150, "dev": 50, "test": 300},
            zipf={"size": 2500, "markers": 40, "exponent": 1.0},
            arms=(
                Arm(
                    name="lr",
                    train_args=("--config", "lr.json"),
                    f1_floor=0.95,
                    run_config={
                        "train_path": "train.tsv",
                        "dev_path": "dev.tsv",
                        "model_path": "lr.bundle.json",
                        "model_kind": "tfidf_lr",
                        "seed": 7,
                        "tfidf": {"ngram_max": 2},
                        "lr": {"epochs": 20},
                    },
                ),
                Arm(
                    name="enc",
                    train_args=("--config", "enc.json"),
                    f1_floor=0.3,
                    run_config=_enc_config(64, 512, epochs=2, batch_size=4),
                ),
            ),
        ),
    )
}


def _split_rows(
    rng: random.Random, make_row, name: str, n_per_class: int
) -> list[tuple[str, str, str]]:
    drafts = [
        (make_row(label), label)
        for label in (ABUSIVE, NON_ABUSIVE)
        for _ in range(n_per_class)
    ]
    rng.shuffle(drafts)
    return [(f"{name}-{i:05d}", text, label) for i, (text, label) in enumerate(drafts)]


def generate(workload: Workload, seed: int) -> dict[str, list[tuple[str, str, str]]]:
    """Every split of the workload as (id, text, label) rows; a pure function
    of (workload, seed)."""
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.corpus == "synth":
        def make_row(label: str) -> str:
            return _synth_row(rng, label)
    else:
        # The lexicon is part of the workload, like the synth word pools; the
        # seed draws the rows. A per-seed lexicon would change word lengths,
        # and with them the BPE and encode cost, from one seed to the next.
        lexicon = _ZipfLexicon(random.Random(workload.name), **workload.zipf)

        def make_row(label: str) -> str:
            return _zipf_row(rng, lexicon, label)
    return {
        name: _split_rows(rng, make_row, name, n)
        for name, n in workload.rows.items()
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Write the TSV splits and the arms' run-config files; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in generate(workload, seed).items():
        path = directory / f"{name}.tsv"
        lines = ["id\ttext\tlabel"] + ["\t".join(row) for row in rows]
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        written.append(path)
    for arm in workload.arms:
        if arm.run_config is not None:
            path = directory / f"{arm.name}.json"
            path.write_text(json.dumps(arm.run_config, indent=2) + "\n", encoding="utf-8")
            written.append(path)
    return written
