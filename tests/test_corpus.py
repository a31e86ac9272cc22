"""Label mapping, dataset parsing, statistics, and the synthetic generator."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abusivetext.corpus import (
    FileFormat,
    Label,
    LabeledExample,
    VocabProfile,
    compute_stats,
    map_label,
    parse_dataset,
    synth_corpus,
    write_dataset,
)
from abusivetext.errors import EncodingError, MalformedRow, UnknownLabel


def tsv(*rows: str) -> bytes:
    return ("\n".join(rows) + "\n").encode("utf-8")


class TestMapLabel:
    def test_abusive_is_one(self):
        assert map_label("Abusive") == Label.ABUSIVE == 1

    def test_non_abusive_is_zero(self):
        assert map_label("Non-Abusive") == Label.NON_ABUSIVE == 0

    def test_trim_and_case_fold(self):
        assert map_label("  abusive ") == 1

    @pytest.mark.parametrize(
        "raw", ["Non-abusive", "non abusive", "NON-ABUSIVE", "non - abusive"]
    )
    def test_hyphen_space_variants(self, raw):
        assert map_label(raw) == 0

    def test_unknown_label_carries_value(self):
        with pytest.raises(UnknownLabel) as exc:
            map_label("maybe")
        assert exc.value.value == "maybe"

    @given(st.sampled_from([Label.NON_ABUSIVE, Label.ABUSIVE]))
    def test_roundtrip_with_canonical_strings(self, label):
        assert map_label(label.to_text()) == label


class TestParseDataset:
    def test_three_wellformed_rows_keep_file_order(self):
        data = tsv(
            "id\ttext\tlabel",
            "a\tfirst comment\tAbusive",
            "b\tsecond comment\tNon-Abusive",
            "c\tthird comment\tabusive",
        )
        split = parse_dataset(data)
        assert [ex.id for ex in split] == ["a", "b", "c"]
        assert [ex.label for ex in split] == [Label(1), Label(0), Label(1)]

    def test_ids_synthesized_from_row_index(self):
        data = tsv("text\tlabel", "one\tAbusive", "two\tNon-Abusive")
        split = parse_dataset(data)
        assert [ex.id for ex in split] == ["row-0", "row-1"]

    def test_unlabeled_parse(self):
        data = tsv("id\ttext", "x\thello there")
        split = parse_dataset(data, has_labels=False)
        assert split[0].label is None

    def test_header_decides_whether_labels_are_read(self):
        labeled = parse_dataset(tsv("id\ttext\tlabel", "x\thi\tAbusive"))
        assert labeled[0].label is Label.ABUSIVE
        unlabeled = parse_dataset(tsv("id\ttext", "x\thi"))
        assert unlabeled[0].label is None

    def test_required_label_column_missing(self):
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(tsv("", "id\ttext", "x\thi"), has_labels=True)
        assert exc.value.row == 2

    def test_rows_are_numbered_by_file_line(self):
        data = tsv("id\ttext\tlabel", "", "a\tok\tAbusive", "\r", "b\tbad\tabusivee")
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(data)
        assert exc.value.row == 5

    def test_unknown_label_is_malformed_row(self):
        data = tsv("id\ttext\tlabel", "a\tok\tAbusive", "b\tbad\tabusivee")
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(data)
        assert exc.value.row == 3

    def test_wrong_column_count(self):
        data = tsv("id\ttext\tlabel", "a\tonly-two-cells")
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(data)
        assert exc.value.row == 2

    def test_duplicate_id_rejected(self):
        data = tsv("id\ttext\tlabel", "a\tx\tAbusive", "a\ty\tAbusive")
        with pytest.raises(MalformedRow):
            parse_dataset(data)

    def test_duplicate_texts_allowed(self):
        # Scraped comments repeat; only ids must be unique.
        data = tsv("id\ttext\tlabel", "a\tsame\tAbusive", "b\tsame\tAbusive")
        assert len(parse_dataset(data)) == 2

    def test_empty_text_rejected_on_ingestion(self):
        data = tsv("id\ttext\tlabel", "a\t\tAbusive")
        with pytest.raises(MalformedRow):
            parse_dataset(data)

    def test_invalid_utf8(self):
        with pytest.raises(EncodingError):
            parse_dataset(b"id\ttext\tlabel\na\t\xff\xfe\tAbusive\n")

    def test_missing_text_column(self):
        with pytest.raises(MalformedRow):
            parse_dataset(tsv("id\tlabel", "a\tAbusive"))

    def test_csv_quoting_and_embedded_newline(self):
        data = (
            'id,text,label\n'
            'a,"hello, with comma",Abusive\n'
            'b,"two\nlines",Non-Abusive\n'
        ).encode("utf-8")
        split = parse_dataset(data, format=FileFormat.CSV)
        assert split[0].text == "hello, with comma"
        assert split[1].text == "two\nlines"

    def test_commas_are_plain_text_in_tsv(self):
        data = tsv("id\ttext\tlabel", "a\thello, world\tAbusive")
        assert parse_dataset(data)[0].text == "hello, world"

    @given(st.integers(min_value=1, max_value=30))
    def test_row_count_and_order_preserved(self, n):
        rows = [f"r{k}\ttext number {k}\tAbusive" for k in range(n)]
        split = parse_dataset(tsv("id\ttext\tlabel", *rows))
        assert len(split) == n
        assert [ex.id for ex in split] == [f"r{k}" for k in range(n)]

    def test_write_then_parse_roundtrip(self):
        split = synth_corpus(5, 10)
        for format in (FileFormat.TSV, FileFormat.CSV):
            again = parse_dataset(write_dataset(split, format), format=format)
            assert [ex.id for ex in again] == [ex.id for ex in split]
            assert [ex.text for ex in again] == [ex.text for ex in split]
            assert [ex.label for ex in again] == [ex.label for ex in split]


# Cells that parse_dataset may not read back as written: separators, line
# breaks, quotes, surrounding spaces.
cells_st = st.text(alphabet=' ab\t\n\r",é', max_size=4)
examples_st = st.lists(
    st.builds(
        LabeledExample,
        id=cells_st.filter(bool),
        text=cells_st,
        label=st.sampled_from([None, Label.ABUSIVE, Label.NON_ABUSIVE]),
    ),
    max_size=4,
)


def plain_cell(cell: str) -> bool:
    return cell != "" and cell == cell.strip() and not any(c in cell for c in "\t\n\r")


class TestWriteDataset:
    @settings(max_examples=400, deadline=None)
    @given(examples=examples_st, format=st.sampled_from(FileFormat))
    @example(
        examples=[LabeledExample(id="a\nb", text="x", label=Label.ABUSIVE)],
        format=FileFormat.TSV,
    )
    @example(
        examples=[LabeledExample(id=" a ", text="x", label=Label.ABUSIVE)],
        format=FileFormat.TSV,
    )
    @example(
        examples=[LabeledExample(id="a\r", text="x", label=Label.ABUSIVE)],
        format=FileFormat.CSV,
    )
    @example(
        examples=[LabeledExample(id="a", text="x\ry", label=Label.ABUSIVE)],
        format=FileFormat.CSV,
    )
    def test_reads_back_unchanged_or_is_refused(self, examples, format):
        try:
            data = write_dataset(examples, format)
        except ValueError:
            # Plain rows, with one label column or none, are always written.
            assert not (
                all(plain_cell(ex.id) and plain_cell(ex.text) for ex in examples)
                and len({ex.id for ex in examples}) == len(examples)
                and len({ex.label is None for ex in examples}) <= 1
            )
            return
        assert parse_dataset(data, format) == tuple(examples)


class TestLabeledExample:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            LabeledExample(id="", text="x")


class TestComputeStats:
    def test_empty_split(self):
        stats = compute_stats(())
        assert stats.total == 0
        assert stats.per_label == {Label.NON_ABUSIVE: 0, Label.ABUSIVE: 0}
        assert stats.unlabeled == 0

    def test_tamil_train_shaped_fixture(self):
        # 1424 Non-Abusive + 1366 Abusive = 2790 rows, the published train size.
        rows = [f"n{k}\tclean comment {k}\tNon-Abusive" for k in range(1424)]
        rows += [f"a{k}\tbad comment {k}\tAbusive" for k in range(1366)]
        split = parse_dataset(tsv("id\ttext\tlabel", *rows))
        stats = compute_stats(split)
        assert stats.total == 2790
        assert stats.per_label[Label.NON_ABUSIVE] == 1424
        assert stats.per_label[Label.ABUSIVE] == 1366
        assert stats.unlabeled == 0

    def test_tamil_test_shaped_fixture_unlabeled(self):
        rows = [f"t{k}\tcomment {k}" for k in range(597)]
        split = parse_dataset(tsv("id\ttext", *rows), has_labels=False)
        stats = compute_stats(split)
        assert stats.total == 597
        assert stats.unlabeled == 597

    @given(st.lists(st.sampled_from([0, 1, None]), max_size=40))
    def test_totals_always_reconcile(self, label_codes):
        examples = tuple(
            LabeledExample(
                id=f"e{i}", text="t", label=None if c is None else Label(c)
            )
            for i, c in enumerate(label_codes)
        )
        stats = compute_stats(examples)
        assert stats.total == sum(stats.per_label.values()) + stats.unlabeled


class TestSynthCorpus:
    def test_balanced_and_deterministic(self):
        a = synth_corpus(7, 50)
        b = synth_corpus(7, 50)
        assert a == b
        stats = compute_stats(a)
        assert stats.total == 100
        assert stats.per_label[Label.ABUSIVE] == 50
        assert stats.per_label[Label.NON_ABUSIVE] == 50

    def test_seed_changes_texts(self):
        a = synth_corpus(7, 50)
        b = synth_corpus(8, 50)
        assert [ex.text for ex in a] != [ex.text for ex in b]

    def test_identical_bytes_on_repeated_calls(self):
        assert write_dataset(synth_corpus(7, 50)) == write_dataset(synth_corpus(7, 50))

    def test_n_per_class_must_be_positive(self):
        with pytest.raises(ValueError):
            synth_corpus(7, 0)

    def test_profile_controls_noise(self):
        quiet = VocabProfile(url_rate=0.0, punct_rate=0.0)
        split = synth_corpus(3, 40, profile=quiet)
        assert not any("http" in ex.text or "www." in ex.text for ex in split)

    def test_classes_are_lexically_separable(self):
        # No token from one class pool may appear in the other class's texts.
        split = synth_corpus(11, 60)
        abusive_tokens = set()
        clean_tokens = set()
        for ex in split:
            target = abusive_tokens if ex.label == Label.ABUSIVE else clean_tokens
            target.update(ex.text.split())
        markers_a = {t for t in abusive_tokens if t not in clean_tokens}
        assert markers_a, "abusive class has no exclusive markers"
