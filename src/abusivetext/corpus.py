"""Labeled-dataset handling: label mapping, TSV/CSV parsing, statistics, and a
deterministic synthetic-corpus generator for desk-scale runs.

Input files are UTF-8 with a header row naming at least ``text`` and, for
labeled data, ``label``; an ``id`` column is optional (row index is used
otherwise). TSV is the default format since social-media text is full of
commas; TSV cells must not contain tabs or newlines, while CSV follows
standard quoting rules (embedded newlines inside quotes are fine).
"""
from __future__ import annotations

import csv
import enum
import io
import re
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from .errors import EncodingError, MalformedRow, UnknownLabel


class Label(enum.IntEnum):
    NON_ABUSIVE = 0
    ABUSIVE = 1

    def to_text(self) -> str:
        return "Abusive" if self is Label.ABUSIVE else "Non-Abusive"


_LABEL_NORMALIZER = re.compile(r"[\s\-]+")


def map_label(raw: str) -> Label:
    """Map a label string to its binary value: Abusive -> 1, Non-Abusive -> 0.

    Matching is case-insensitive and tolerant of hyphen/space variation
    ("Non-Abusive", "Non-abusive", "non abusive" all map to 0). Anything
    else raises UnknownLabel.
    """
    normalized = _LABEL_NORMALIZER.sub(" ", raw.strip().lower())
    if normalized == "abusive":
        return Label.ABUSIVE
    if normalized == "non abusive":
        return Label.NON_ABUSIVE
    raise UnknownLabel(raw)


@dataclass(frozen=True)
class LabeledExample:
    """One comment. ``label`` is None for unlabeled test data."""

    id: str
    text: str
    label: Label | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("example id must be non-empty")


@dataclass(frozen=True)
class DatasetStats:
    total: int
    per_label: dict[Label, int]
    unlabeled: int


def compute_stats(examples: Sequence[LabeledExample]) -> DatasetStats:
    """Exact per-label and unlabeled counts; total always reconciles."""
    per_label = {Label.NON_ABUSIVE: 0, Label.ABUSIVE: 0}
    unlabeled = 0
    for ex in examples:
        if ex.label is None:
            unlabeled += 1
        else:
            per_label[ex.label] += 1
    return DatasetStats(total=len(examples), per_label=per_label, unlabeled=unlabeled)


class FileFormat(str, enum.Enum):
    TSV = "tsv"
    CSV = "csv"


def _rows_from_text(text: str, format: FileFormat) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based file line, cells). Blank lines are skipped so trailing
    newlines do not count as data; a CSV record is numbered by the line it
    ends on."""
    if format is FileFormat.TSV:
        for number, line in enumerate(text.split("\n"), start=1):
            line = line.rstrip("\r")
            if line == "":
                continue
            yield number, line.split("\t")
        return
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for cells in reader:
            if cells:
                yield reader.line_num, cells
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from exc


def decode_text(data: bytes) -> str:
    """UTF-8 bytes as text, without a leading byte-order mark; EncodingError
    for invalid UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"input is not valid UTF-8: {exc}") from exc
    return text.removeprefix("\ufeff")


def read_table(
    data: bytes, format: FileFormat
) -> tuple[int, dict[str, int], Iterator[tuple[int, list[str]]]]:
    """Decode UTF-8 table bytes and split off the header, the first non-blank
    row: (header file line, stripped cell -> column index, data rows as
    (file line, cells)). A data row whose cell count differs from the
    header's is a MalformedRow at its file line."""
    rows = _rows_from_text(decode_text(data), format)
    first = next(rows, None)
    if first is None:
        raise MalformedRow(1, "missing header row")
    header_line, header = first

    def checked() -> Iterator[tuple[int, list[str]]]:
        for number, cells in rows:
            if len(cells) != len(header):
                raise MalformedRow(
                    number, f"expected {len(header)} columns, found {len(cells)}"
                )
            yield number, cells

    return header_line, {cell.strip(): i for i, cell in enumerate(header)}, checked()


def read_examples(
    columns: dict[str, int], rows: Iterator[tuple[int, list[str]]], has_labels: bool
) -> Iterator[LabeledExample]:
    """The row loop of every table reader, datasets and predictions files
    alike: one LabeledExample per data row of read_table.

    The id is the stripped ``id`` cell, or ``row-<k>`` from the 0-based
    data-row index when ``columns`` has no ``id``; the text is the ``text``
    cell, or empty when ``columns`` has no ``text``. An empty or repeated id,
    an empty ``text`` cell and, with ``has_labels``, a label map_label
    refuses are each a MalformedRow at the row's file line.
    """
    text_column = columns.get("text")
    seen_ids: set[str] = set()
    for index, (number, cells) in enumerate(rows):
        example_id = (
            cells[columns["id"]].strip() if "id" in columns else f"row-{index}"
        )
        if not example_id:
            raise MalformedRow(number, "empty id")
        if example_id in seen_ids:
            raise MalformedRow(number, f"duplicate id {example_id!r}")
        seen_ids.add(example_id)
        text = "" if text_column is None else cells[text_column]
        if text_column is not None and text == "":
            raise MalformedRow(number, "empty text")
        label: Label | None = None
        if has_labels:
            try:
                label = map_label(cells[columns["label"]])
            except UnknownLabel as exc:
                raise MalformedRow(number, str(exc)) from exc
        yield LabeledExample(id=example_id, text=text, label=label)


def parse_dataset(
    data: bytes, format: FileFormat = FileFormat.TSV, has_labels: bool | None = None
) -> tuple[LabeledExample, ...]:
    """Parse UTF-8 TSV/CSV bytes into their examples, in file order.

    Labels are read when the header names a ``label`` column (``has_labels``
    True requires one, False ignores it). The header must name ``text``;
    rows are checked by read_examples, and invalid UTF-8 is an EncodingError.
    """
    header_line, columns, rows = read_table(data, format)
    if "text" not in columns:
        raise MalformedRow(header_line, "header does not name a 'text' column")
    if has_labels is None:
        has_labels = "label" in columns
    elif has_labels and "label" not in columns:
        raise MalformedRow(header_line, "header does not name a 'label' column")
    return tuple(read_examples(columns, rows, has_labels))


# Token pools for the synthetic generator. The class pools never overlap, so
# any linear model can separate the two classes; fillers are shared and
# include Dravidian-script words to exercise the Unicode path end to end.
_ABUSIVE_POOL = (
    "grawk", "snerv", "plonkish", "druvel", "moxprat", "skolv",
    "tarnip", "blugg", "vexmor", "crindle", "zorvat", "gnashpel",
)
_NON_ABUSIVE_POOL = (
    "melith", "soravel", "quimbra", "lunareth", "fenwick", "opralin",
    "tessily", "windgrove", "halcyon", "brightle", "serenth", "calmora",
)
_FILLER_POOL = (
    "the", "video", "song", "really", "comment", "watch", "today",
    "always", "people", "channel", "movie", "scene", "actor", "story",
    "நல்ல", "படம்", "பாடல்", "சூப்பர்", "നല്ല", "പാട്ട്", "സിനിമ", "കൊള്ളാം",
)
_URL_HOSTS = ("https://t.co/", "http://bit.ly/", "www.example.com/")
_PUNCT_NOISE = ("!!!", "???", "...", "!!", "<3", ":)", "#tag")


@dataclass(frozen=True)
class VocabProfile:
    """Generator settings for synthetic corpora."""

    words_min: int = 4
    words_max: int = 10
    keywords_min: int = 1
    keywords_max: int = 3
    url_rate: float = 0.15
    punct_rate: float = 0.3

    def __post_init__(self):
        if not 1 <= self.words_min <= self.words_max:
            raise ValueError("need 1 <= words_min <= words_max")
        if not 1 <= self.keywords_min <= self.keywords_max:
            raise ValueError("need 1 <= keywords_min <= keywords_max")
        for rate in (self.url_rate, self.punct_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("noise rates must be in [0, 1]")


def synth_corpus(
    seed: int, n_per_class: int, profile: VocabProfile = VocabProfile()
) -> tuple[LabeledExample, ...]:
    """Generate a balanced, lexically separable corpus. Pure function of its
    arguments: the same seed always yields byte-identical examples."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = Random(seed)
    drafts: list[tuple[str, Label]] = []
    for label in (Label.ABUSIVE, Label.NON_ABUSIVE):
        pool = _ABUSIVE_POOL if label is Label.ABUSIVE else _NON_ABUSIVE_POOL
        for _ in range(n_per_class):
            n_words = rng.randint(profile.words_min, profile.words_max)
            n_keywords = min(
                n_words, rng.randint(profile.keywords_min, profile.keywords_max)
            )
            words = [rng.choice(pool) for _ in range(n_keywords)]
            words += [
                rng.choice(_FILLER_POOL) for _ in range(n_words - n_keywords)
            ]
            rng.shuffle(words)
            if words and rng.random() < profile.punct_rate:
                slot = rng.randrange(len(words))
                words[slot] = words[slot] + rng.choice(_PUNCT_NOISE)
            if rng.random() < profile.url_rate:
                url = rng.choice(_URL_HOSTS) + format(rng.randrange(16**6), "06x")
                words.insert(rng.randrange(len(words) + 1), url)
            drafts.append((" ".join(words), label))
    rng.shuffle(drafts)
    return tuple(
        LabeledExample(id=f"synth-{i:04d}", text=text, label=label)
        for i, (text, label) in enumerate(drafts)
    )


def write_dataset(
    examples: Sequence[LabeledExample], format: FileFormat = FileFormat.TSV
) -> bytes:
    """Serialize examples to file bytes (id, text, and label when every
    example has one): the inverse of parse_dataset.

    The bytes are parsed back before they are returned, and examples that
    would not read back unchanged raise ValueError rather than write a table
    that means something else: a TSV tab or newline, an id with surrounding
    spaces, a repeated id, an empty text, labels on only some examples.
    """
    labeled = all(ex.label is not None for ex in examples)
    header = ["id", "text"] + (["label"] if labeled else [])
    rows = [
        [ex.id, ex.text] + ([ex.label.to_text()] if labeled else [])
        for ex in examples
    ]
    if format is FileFormat.TSV:
        lines = ["\t".join(row) for row in [header, *rows]]
        data = ("\n".join(lines) + "\n").encode("utf-8")
    else:
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows([header, *rows])
        data = buffer.getvalue().encode("utf-8")
    try:
        read_back = parse_dataset(data, format)
    except MalformedRow as exc:
        raise ValueError(f"examples cannot be written as {format.value}: {exc}") from exc
    # Each example writes one row, so one that reads back as some other
    # number of rows differs at its own place.
    for ex, back in zip(examples, read_back):
        if ex != back:
            raise ValueError(f"example {ex.id!r} cannot be written as {format.value}")
    return data
