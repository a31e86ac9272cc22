"""Bundle serialization: byte-stable round-trips and rejection of bad payloads."""
import base64
import hashlib
import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abusivetext import bundle as bd
from abusivetext import encoder as enc
from abusivetext import linear, vectorizer
from abusivetext.configs import MICRO_ENCODER, RunConfig
from abusivetext.corpus import synth_corpus
from abusivetext.errors import BundleInconsistentError, BundleVersionError
from abusivetext.textprep import CleanPolicy, preprocess


def lr_bundle_of(texts, labels, tfidf_config=vectorizer.TfIdfConfig()):
    tfidf = vectorizer.fit(texts, tfidf_config)
    config = linear.TrainConfigLR(epochs=5)
    model, report = linear.train_lr(
        vectorizer.transform_rows(tfidf, texts), labels, config, seed=3
    )
    return bd.ModelBundle(
        config=RunConfig(language_tag="synthetic", seed=3, tfidf=tfidf_config, lr=config),
        payload=bd.TfIdfLrPayload(tfidf=tfidf, linear=model),
        report=report,
        provenance=bd.Provenance.of_run(b"", None),
    )


@pytest.fixture(scope="module")
def tfidf_lr_bundle():
    split = synth_corpus(3, 12)
    return lr_bundle_of([preprocess(ex.text) for ex in split], [ex.label for ex in split])


@pytest.fixture(scope="module")
def encoder_bundle():
    split = synth_corpus(4, 8)
    pairs = [(preprocess(ex.text), ex.label) for ex in split]
    texts = [text for text, _ in pairs]
    tokenizer = enc.train_subword(texts, vocab_size=72)
    config = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=12)
    train_config = enc.TrainConfigEnc(learning_rate=1e-3, epochs=2, batch_size=4)
    model, report = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=5)
    return bd.ModelBundle(
        config=RunConfig(
            model_kind=MICRO_ENCODER, language_tag="synthetic", seed=5,
            preprocessing=CleanPolicy(strip_digits=True), encoder=config,
            encoder_train=train_config, encoder_vocab_size=72,
        ),
        payload=bd.MicroEncoderPayload(tokenizer=tokenizer, model=model),
        report=report,
        provenance=bd.Provenance.of_run(b"", None),
    )


class TestRoundTrip:
    def test_tfidf_lr_bytes_stable(self, tfidf_lr_bundle):
        raw = bd.serialize_bundle(tfidf_lr_bundle)
        again = bd.serialize_bundle(bd.deserialize_bundle(raw))
        assert again == raw

    def test_encoder_bytes_stable(self, encoder_bundle):
        raw = bd.serialize_bundle(encoder_bundle)
        again = bd.serialize_bundle(bd.deserialize_bundle(raw))
        assert again == raw

    def test_loaded_payload_equals_original(self, tfidf_lr_bundle, encoder_bundle):
        lr_loaded = bd.deserialize_bundle(bd.serialize_bundle(tfidf_lr_bundle))
        assert lr_loaded.payload.linear == tfidf_lr_bundle.payload.linear
        assert np.array_equal(lr_loaded.payload.tfidf.idf, tfidf_lr_bundle.payload.tfidf.idf)
        assert lr_loaded.config == tfidf_lr_bundle.config
        enc_loaded = bd.deserialize_bundle(bd.serialize_bundle(encoder_bundle))
        assert enc_loaded.payload.model == encoder_bundle.payload.model
        assert enc_loaded.payload.tokenizer == encoder_bundle.payload.tokenizer
        assert enc_loaded.config == encoder_bundle.config

    def test_save_and_load_files(self, tmp_path, tfidf_lr_bundle):
        path = tmp_path / "model.bundle.json"
        bd.save_bundle(tfidf_lr_bundle, path)
        assert bd.serialize_bundle(bd.deserialize_bundle(path.read_bytes())) == path.read_bytes()

    def test_kind_comes_from_the_payload(self, tfidf_lr_bundle, encoder_bundle):
        for bundle in (tfidf_lr_bundle, encoder_bundle):
            doc = json.loads(bd.serialize_bundle(bundle))
            kind = doc["run_config"]["model_kind"]
            assert kind == bundle.config.model_kind == bundle.payload.KIND
            assert bd.PAYLOADS[kind] is type(bundle.payload)

    def test_top_level_is_the_run_config_payload_report_and_provenance(
        self, tfidf_lr_bundle, encoder_bundle
    ):
        for bundle in (tfidf_lr_bundle, encoder_bundle):
            doc = json.loads(bd.serialize_bundle(bundle))
            assert list(doc) == [
                "format_version", "run_config", *bundle.payload.SECTIONS,
                "training_report", "provenance",
            ]
            recorded = bundle.config.to_dict()
            for key in ("train_path", "dev_path", "model_path"):
                del recorded[key]
            assert doc["run_config"] == recorded
            assert sorted(doc["provenance"]) == [
                "abusivetext_version", "dev_sha256", "numpy_version", "train_sha256",
            ]

    def test_one_report_layout_for_both_arms(self, tfidf_lr_bundle, encoder_bundle):
        # The bundle, not the payload, holds the report; the LR fixture had no dev.
        for cls in bd.PAYLOADS.values():
            assert "report" not in {f.name for f in fields(cls)}
        for bundle, n_dev in ((tfidf_lr_bundle, 0), (encoder_bundle, 2)):
            report = json.loads(bd.serialize_bundle(bundle))["training_report"]
            assert list(report) == ["epoch_train_losses", "epoch_dev_macro_f1"]
            assert report == asdict(bundle.report)
            assert len(report["epoch_dev_macro_f1"]) == n_dev
            assert bd.deserialize_bundle(bd.serialize_bundle(bundle)).report == bundle.report

    def test_settings_are_stored_once(self, tfidf_lr_bundle, encoder_bundle):
        removed = {"model_kind", "language_tag", "preprocessing", "train_config",
                   "encoder_config", "config", "dimension", "specials"}
        for bundle in (tfidf_lr_bundle, encoder_bundle):
            doc = json.loads(bd.serialize_bundle(bundle))
            outside = {k: v for k, v in doc.items() if k != "run_config"}
            assert removed.isdisjoint(_keys(outside))
            assert "run_config" not in _keys(doc["run_config"]) | _keys(outside)

    def test_payload_of_another_kind_is_refused(self, tfidf_lr_bundle, encoder_bundle):
        for bundle, other in ((tfidf_lr_bundle, encoder_bundle),
                              (encoder_bundle, tfidf_lr_bundle)):
            with pytest.raises(ValueError, match="payload cannot go in a"):
                bd.ModelBundle(bundle.config, other.payload, bundle.report, bundle.provenance)

    def test_payload_built_with_other_settings_is_refused(
        self, tfidf_lr_bundle, encoder_bundle
    ):
        configs = [
            replace(tfidf_lr_bundle.config, tfidf=vectorizer.TfIdfConfig(ngram_max=2)),
            replace(encoder_bundle.config, encoder=enc.EncoderConfig()),
        ]
        for bundle, config in zip((tfidf_lr_bundle, encoder_bundle), configs):
            with pytest.raises(ValueError, match="not built with the run config"):
                bd.ModelBundle(config, bundle.payload, bundle.report, bundle.provenance)

    def test_loaded_arrays_are_writable_native_float64(self, tfidf_lr_bundle, encoder_bundle):
        lr = bd.deserialize_bundle(bd.serialize_bundle(tfidf_lr_bundle)).payload
        encoder = bd.deserialize_bundle(bd.serialize_bundle(encoder_bundle)).payload
        for array in [lr.linear.weights, *encoder.model.params.values()]:
            assert array.dtype == np.float64 and array.dtype.isnative
            assert array.flags.writeable and array.flags.c_contiguous
        dfs = lr.tfidf.document_frequency
        assert dfs.dtype == np.int64 and dfs.dtype.isnative and dfs.flags.writeable

    def test_vectorizer_stores_unigrams_as_one_string_and_no_idf(self, tfidf_lr_bundle):
        # A unigram model: its tokens are the unigrams, and nothing else is used.
        tfidf = tfidf_lr_bundle.payload.tfidf
        vec = json.loads(bd.serialize_bundle(tfidf_lr_bundle))["vectorizer"]
        assert list(vec) == [
            "n_documents", "unigrams", "inner_words", "ngrams", "document_frequency",
        ]
        assert vec["unigrams"] == " ".join(tfidf.tokens)
        assert vec["inner_words"] == "" and vec["ngrams"] == []
        assert vec["document_frequency"] == " ".join(map(str, tfidf.document_frequency.tolist()))
        assert len(vec["document_frequency"].split(" ")) == tfidf.dimension

    def test_ngrams_are_word_positions(self):
        # max_vocab 5 keeps the bigrams "a b" and "b c" and the trigram
        # "a b c" but not the unigram "c" (df 2, last in the tie-break): c is
        # an inner word, at position 3 after the unigrams a and b.
        texts = ["a b c", "a b c", "a b"]
        sep = vectorizer.NGRAM_SEPARATOR
        bundle = lr_bundle_of(texts, [0, 1, 0], vectorizer.TfIdfConfig(ngram_max=3, max_vocab=5))
        assert bundle.payload.tfidf.tokens == ["a", f"a{sep}b", f"a{sep}b{sep}c", "b", f"b{sep}c"]
        raw = bd.serialize_bundle(bundle)
        vec = json.loads(raw)["vectorizer"]
        assert vec["unigrams"] == "a b" and vec["inner_words"] == "c"
        assert vec["ngrams"] == ["1 1 2", "2 2 3", "0 3 0"]
        assert vec["document_frequency"] == "3 3 2 3 2"
        loaded = bd.deserialize_bundle(raw)
        assert loaded.payload.tfidf == bundle.payload.tfidf
        assert bd.serialize_bundle(loaded) == raw

    @settings(max_examples=150, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(st.sampled_from(["a", "ab", "b", "ba", "c", "ca", "d", "e", "f", "g"]),
                     max_size=7).map(" ".join),
            min_size=1, max_size=8,
        ),
        ngram_max=st.integers(1, 3),
        min_df=st.integers(1, 2),
        kept_share=st.one_of(st.none(), st.floats(0, 1)),
    )
    def test_any_fitted_vocabulary_round_trips(self, corpus, ngram_max, min_df, kept_share):
        # Words that prefix each other order differently as strings and as
        # word tuples. Capped at a share of the uncapped size, max_vocab cuts
        # among tokens of equal df and can keep an n-gram without its words:
        # those become inner words.
        config = vectorizer.TfIdfConfig(min_df=min_df, ngram_max=ngram_max)
        if kept_share is not None:
            dimension = vectorizer.fit(corpus, config).dimension
            config = replace(config, max_vocab=int(kept_share * dimension))
        bundle = lr_bundle_of(corpus, [i % 2 for i in range(len(corpus))], config)
        raw = bd.serialize_bundle(bundle)
        loaded = bd.deserialize_bundle(raw)
        assert loaded.payload.tfidf == bundle.payload.tfidf
        assert bd.serialize_bundle(loaded) == raw

    def test_tokenizer_stores_its_bytes_and_merges_and_no_pieces(self, encoder_bundle):
        tokenizer = encoder_bundle.payload.tokenizer
        tok = json.loads(bd.serialize_bundle(encoder_bundle))["tokenizer"]
        assert list(tok) == ["bytes", "merges"]
        singles = [p for p in tokenizer.pieces if len(p) == 1]
        assert tok["bytes"] == b"".join(singles).hex() and len(singles) > 2
        assert tok["merges"].split(" ") == [f"{a.hex()}.{b.hex()}" for a, b in tokenizer.merges]
        assert enc.derive_pieces(singles, tokenizer.merges) == list(tokenizer.pieces)

    def test_empty_tokenizer_vocabulary_round_trips(self, encoder_bundle):
        # A corpus of blank texts has no bytes, so no merges: the bare specials.
        tokenizer = enc.train_subword(["", "  "], vocab_size=8)
        assert tokenizer.pieces == () and tokenizer.merges == ()
        config = encoder_bundle.config
        theta = enc.init_theta(config.encoder, tokenizer.vocab_size, seed=1)
        bundle = replace(encoder_bundle, payload=bd.MicroEncoderPayload(
            tokenizer, enc.EncoderModel(theta, config.encoder, tokenizer.vocab_size)
        ))
        raw = bd.serialize_bundle(bundle)
        assert json.loads(raw)["tokenizer"] == {"bytes": "", "merges": ""}
        loaded = bd.deserialize_bundle(raw)
        assert bd.serialize_bundle(loaded) == raw
        assert loaded.payload.tokenizer == tokenizer
        texts = ["ab c", ""]
        assert loaded.payload.probabilities(texts) == bundle.payload.probabilities(texts)

    def test_zero_token_vocabulary_round_trips(self):
        split = synth_corpus(3, 12)
        texts = [preprocess(ex.text) for ex in split]
        labels = [ex.label for ex in split]
        bundle = lr_bundle_of(texts, labels, vectorizer.TfIdfConfig(max_vocab=0))
        raw = bd.serialize_bundle(bundle)
        vec = json.loads(raw)["vectorizer"]
        assert vec["unigrams"] == vec["inner_words"] == vec["document_frequency"] == ""
        assert vec["ngrams"] == []
        loaded = bd.deserialize_bundle(raw)
        assert bd.serialize_bundle(loaded) == raw
        assert loaded.payload.tfidf == bundle.payload.tfidf
        assert loaded.payload.probabilities(texts) == bundle.payload.probabilities(texts)

    @pytest.mark.parametrize("token", ["", " ", "a b", " a", "a\tb", "a\u2028b"])
    def test_token_that_fit_cannot_make_never_loads(self, tfidf_lr_bundle, token):
        # Saved, the joined string has the wrong number of tokens or is not
        # single-space joined, so load refuses it rather than reading others.
        payload = tfidf_lr_bundle.payload
        tfidf = vectorizer.TfIdfModel(
            tokens=sorted([token, "zz"]), document_frequency=np.array([1, 1]),
            n_documents=1, config=payload.tfidf.config,
        )
        linear_model = linear.LinearModel(weights=np.zeros(2), bias=0.0)
        bundle = bd.ModelBundle(
            config=tfidf_lr_bundle.config,
            payload=bd.TfIdfLrPayload(tfidf, linear_model),
            report=tfidf_lr_bundle.report,
            provenance=tfidf_lr_bundle.provenance,
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(bd.serialize_bundle(bundle))

    @settings(max_examples=40, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(st.sampled_from("abcdefg"), max_size=8).map(" ".join),
            min_size=1, max_size=30,
        ),
        ngram_max=st.integers(1, 3),
        min_df=st.integers(1, 3),
    )
    def test_loaded_idf_is_fits_idf_bit_for_bit(self, corpus, ngram_max, min_df):
        config = vectorizer.TfIdfConfig(min_df=min_df, ngram_max=ngram_max)
        bundle = lr_bundle_of(corpus, [i % 2 for i in range(len(corpus))], config)
        fitted = bundle.payload.tfidf
        loaded = bd.deserialize_bundle(bd.serialize_bundle(bundle)).payload.tfidf
        # fit's per-token expression, evaluated here token by token.
        n = len(corpus)
        expected = [math.log((1 + n) / (1 + df)) + 1.0 for df in fitted.document_frequency.tolist()]
        assert np.array_equal(loaded.idf, fitted.idf)
        assert np.array_equal(fitted.idf, np.array(expected, dtype=np.float64))
        assert loaded.idf.dtype == np.float64 and loaded.idf.shape == (fitted.dimension,)

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    def test_tensor_round_trip_is_bit_exact(self, shape):
        special = [0.1, -0.0, 5e-324, 1.7976931348623157e308, -np.pi, 1 / 3]
        values = np.array(special[: int(np.prod(shape))]).reshape(shape)
        stored = json.loads(json.dumps(bd.encode_tensor(values)))
        assert stored["shape"] == list(shape)
        back = bd.decode_tensor(stored, shape, "tensor")
        assert back.shape == shape and back.tobytes() == values.tobytes()

    def test_tensors_are_float64_only(self):
        # Integer arrays are stored as text, so the one tensor dtype is <f8.
        assert bd.encode_tensor(np.array([1, 2], dtype=np.int64))["dtype"] == "<f8"
        stored = _stored(np.array([1, 2], dtype=np.int64), "<i8")
        with pytest.raises(BundleInconsistentError, match="dtype must be '<f8'"):
            bd.decode_tensor(stored, (2,), "tensor")

    @pytest.mark.parametrize("text", [3, None, ["AAAAAAAAAAA="], "!AAAAAAAAAA=", "AAAAAAAAAAé="])
    def test_base64_that_is_not_strict_ascii_text_is_inconsistent(self, text):
        stored = {"dtype": "<f8", "shape": [1], "base64": text}
        with pytest.raises(BundleInconsistentError, match="not valid base64"):
            bd.decode_tensor(stored, (1,), "tensor")

    def test_provenance_round_trips(self, tfidf_lr_bundle):
        bundle = bd.ModelBundle(
            config=tfidf_lr_bundle.config,
            payload=tfidf_lr_bundle.payload,
            report=tfidf_lr_bundle.report,
            provenance=bd.Provenance.of_run(b"train", b"dev"),
        )
        raw = bd.serialize_bundle(bundle)
        loaded = bd.deserialize_bundle(raw)
        assert loaded.provenance == bundle.provenance
        assert bd.serialize_bundle(loaded) == raw

    def test_version_field_comes_first(self, tfidf_lr_bundle):
        raw = bd.serialize_bundle(tfidf_lr_bundle).decode("utf-8")
        assert raw.splitlines()[1].strip().startswith('"format_version"')


def _keys(node) -> set:
    """Every object key anywhere in a JSON document."""
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


def _values(tensor: dict) -> np.ndarray:
    """The values of a stored tensor, flat and writable."""
    return np.frombuffer(base64.b64decode(tensor["base64"]), dtype=tensor["dtype"]).copy()


def _stored(values, dtype="<f8") -> dict:
    """A stored tensor holding values. Written here, not by the bundle
    writer, so that it can hold what the writer refuses (NaN)."""
    array = np.asarray(values, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(array.shape),
        "base64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _mutate(bundle_bytes: bytes, mutate) -> bytes:
    doc = json.loads(bundle_bytes.decode("utf-8"))
    mutate(doc)
    return json.dumps(doc).encode("utf-8")


class TestRejection:
    def test_wrong_version(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d.update(format_version=bd.FORMAT_VERSION + 1),
        )
        with pytest.raises(BundleVersionError):
            bd.deserialize_bundle(raw)

    def test_missing_version(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d.pop("format_version"),
        )
        with pytest.raises(BundleVersionError):
            bd.deserialize_bundle(raw)

    def test_unknown_kind(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d["run_config"].update(model_kind="perceptron"),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_dimension_mismatch(self, tfidf_lr_bundle):
        def one_more(d):
            d["linear"]["weights"] = _stored(np.append(_values(d["linear"]["weights"]), 0.0))

        raw = _mutate(bd.serialize_bundle(tfidf_lr_bundle), one_more)
        with pytest.raises(BundleInconsistentError, match="linear weights has shape"):
            bd.deserialize_bundle(raw)

    def test_document_frequency_length_mismatch(self, tfidf_lr_bundle):
        def one_more(d):
            d["vectorizer"]["document_frequency"] += " 1"

        raw = _mutate(bd.serialize_bundle(tfidf_lr_bundle), one_more)
        with pytest.raises(BundleInconsistentError, match="vectorizer df holds"):
            bd.deserialize_bundle(raw)

    @pytest.mark.parametrize("df, match", [
        (0, "not in its stored text form"),
        (-1, "not in its stored text form"),
        ("n_documents + 1", "must lie in 1.."),
    ], ids=["0", "-1", "n_documents + 1"])
    def test_document_frequency_out_of_range(self, tfidf_lr_bundle, df, match):
        def replace_first(d):
            vec = d["vectorizer"]
            dfs = vec["document_frequency"].split(" ")
            dfs[0] = str(vec["n_documents"] + 1 if df == "n_documents + 1" else df)
            vec["document_frequency"] = " ".join(dfs)

        raw = _mutate(bd.serialize_bundle(tfidf_lr_bundle), replace_first)
        with pytest.raises(BundleInconsistentError, match=match):
            bd.deserialize_bundle(raw)

    def test_nan_parameter_rejected_on_load(self, encoder_bundle):
        def nan_first(d):
            stored = d["parameters"]["values"]
            values = _values(stored)
            values[0] = float("nan")
            stored.update(_stored(values))

        raw = _mutate(bd.serialize_bundle(encoder_bundle), nan_first)
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_missing_parameter_value(self, encoder_bundle):
        def one_fewer(d):
            d["parameters"]["values"] = _stored(_values(d["parameters"]["values"])[:-1])

        raw = _mutate(bd.serialize_bundle(encoder_bundle), one_fewer)
        with pytest.raises(BundleInconsistentError, match="parameters values has shape"):
            bd.deserialize_bundle(raw)

    def test_wrong_parameter_shape(self, encoder_bundle):
        def bad_shape(d):
            d["parameters"]["values"].update(_stored(np.zeros((1, 1))))

        raw = _mutate(bd.serialize_bundle(encoder_bundle), bad_shape)
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_tokenizer_vocab_must_match_embedding_rows(self, encoder_bundle):
        # The last merge made a new piece, so without it there is one row too many.
        def drop_last_merge(d):
            d["tokenizer"]["merges"] = d["tokenizer"]["merges"].rsplit(" ", 1)[0]

        raw = _mutate(bd.serialize_bundle(encoder_bundle), drop_last_merge)
        with pytest.raises(BundleInconsistentError, match="parameters changed holds"):
            bd.deserialize_bundle(raw)

    @pytest.mark.parametrize("d_model", [10**30, 10**400], ids=["10**30", "10**400"])
    def test_d_model_past_float_range_names_the_bitmap(self, encoder_bundle, d_model):
        # The size check reads the tensor table with integer arithmetic
        # alone, so a width no float holds fails it like any other.
        def huge(d):
            d["run_config"]["encoder"].update(d_model=d_model, n_heads=1)

        raw = _mutate(bd.serialize_bundle(encoder_bundle), huge)
        with pytest.raises(BundleInconsistentError, match="parameters changed holds"):
            bd.deserialize_bundle(raw)

    def test_merge_operand_that_is_not_yet_a_piece(self, encoder_bundle):
        def byte_ff(d):
            d["tokenizer"]["merges"] += " ff.ff"

        raw = _mutate(bd.serialize_bundle(encoder_bundle), byte_ff)
        with pytest.raises(BundleInconsistentError, match="operand that is not yet a piece"):
            bd.deserialize_bundle(raw)

    def test_pieces_that_are_not_derived_are_refused_on_save(self, encoder_bundle):
        tokenizer = encoder_bundle.payload.tokenizer
        pieces = list(tokenizer.pieces)
        for edited in (pieces[:-2] + pieces[:-3:-1], [pieces[1], pieces[0], *pieces[2:]],
                       pieces[:-1]):
            payload = bd.MicroEncoderPayload(
                enc.SubwordTokenizer(edited, tokenizer.merges), encoder_bundle.payload.model
            )
            with pytest.raises(ValueError, match="not the ones its bytes and merges derive"):
                payload.to_doc(encoder_bundle.config)

    @pytest.mark.parametrize("section", ["run_config", "vectorizer", "linear",
                                         "training_report", "provenance"])
    @pytest.mark.parametrize("value", [None, [], "x", 3])
    def test_section_that_is_not_an_object(self, tfidf_lr_bundle, section, value):
        raw = _mutate(bd.serialize_bundle(tfidf_lr_bundle), lambda d: d.update({section: value}))
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    @pytest.mark.parametrize("kind", [[], {}, None, 3])
    def test_kind_that_is_not_a_name(self, tfidf_lr_bundle, kind):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d["run_config"].update(model_kind=kind),
        )
        with pytest.raises(BundleInconsistentError, match="model_kind must be a string"):
            bd.deserialize_bundle(raw)

    def test_not_json(self):
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(b"\x00\x01 not json")

    def test_nan_values_rejected_on_save(self, tfidf_lr_bundle):
        broken = bd.deserialize_bundle(bd.serialize_bundle(tfidf_lr_bundle))
        broken.payload.linear.weights = broken.payload.linear.weights.copy()
        broken.payload.linear.weights[0] = np.nan
        with pytest.raises(ValueError):
            bd.serialize_bundle(broken)


def _changed_mask(section: dict, size: int) -> np.ndarray:
    bits = np.unpackbits(
        np.frombuffer(base64.b64decode(section["changed"]), np.uint8), bitorder="little"
    )
    assert len(bits) == 8 * -(-size // 8) and not bits[size:].any()
    return bits[:size].astype(bool)


def _with_params(encoder_bundle, params: dict) -> bd.ModelBundle:
    # The tensors laid end to end in the order init_params names them.
    config, tokenizer = encoder_bundle.config, encoder_bundle.payload.tokenizer
    theta = np.concatenate([array.ravel() for array in params.values()])
    return replace(encoder_bundle, payload=bd.MicroEncoderPayload(
        tokenizer, enc.EncoderModel(theta, config.encoder, tokenizer.vocab_size)
    ))


def _seeded_params(encoder_bundle) -> dict:
    config = encoder_bundle.config
    return enc.init_params(config.encoder, encoder_bundle.payload.tokenizer.vocab_size,
                           config.seed)


class TestEncoderParameters:
    def test_only_parameters_that_differ_from_init_are_stored(self, encoder_bundle):
        config, params = encoder_bundle.config, encoder_bundle.payload.model.params
        init = _seeded_params(encoder_bundle)
        section = json.loads(bd.serialize_bundle(encoder_bundle))["parameters"]
        assert list(section) == ["changed", "values", "sha256"]
        names = enc.parameter_shapes(config.encoder, encoder_bundle.payload.tokenizer.vocab_size)
        trained = np.concatenate([params[name].ravel() for name in names])
        seeded = np.concatenate([init[name].ravel() for name in names])
        changed = _changed_mask(section, trained.size)
        assert np.array_equal(changed, trained.view("<u8") != seeded.view("<u8"))
        assert _values(section["values"]).tobytes() == trained[changed].tobytes()
        # The last layer's key bias gets a zero gradient by construction.
        assert 0 < changed.sum() < trained.size
        assert section["sha256"] == hashlib.sha256(trained.astype("<f8").tobytes()).hexdigest()

    def test_bit_i_marks_element_i_of_the_flat_vector(self, encoder_bundle):
        # The k-th tensor in parameter_shapes order changes its element k
        # (modulo its size) alone; that element sits at the tensor's start,
        # the sizes of the tensors before it added up, plus k.
        config = encoder_bundle.config
        shapes = enc.parameter_shapes(config.encoder, encoder_bundle.payload.tokenizer.vocab_size)
        params = _seeded_params(encoder_bundle)
        assert list(params) == list(shapes) and list(shapes) != sorted(shapes)
        bits, values, start = [], [], 0
        for k, (name, shape) in enumerate(shapes.items()):
            size = math.prod(shape)
            flat = params[name].reshape(-1)
            flat[k % size] += 0.5
            bits.append(start + k % size)
            values.append(flat[k % size])
            start += size
        section = json.loads(bd.serialize_bundle(_with_params(encoder_bundle, params)))
        section = section["parameters"]
        assert np.flatnonzero(_changed_mask(section, start)).tolist() == bits
        assert _values(section["values"]).tolist() == values

    @settings(max_examples=60, deadline=None)
    @given(modes=st.lists(st.sampled_from(["init", "all", "some"]), min_size=20, max_size=20),
           seed=st.integers(0, 2**32 - 1))
    @example(modes=["init", "all", "some"] * 6 + ["init", "all"], seed=0)
    def test_any_subset_left_at_init_round_trips(self, encoder_bundle, modes, seed):
        # Each tensor keeps all, none or a random subset of its elements at
        # init; the head bias is -0.0, whose bits differ from init's +0.0.
        params = _seeded_params(encoder_bundle)
        assert len(params) == len(modes)
        rng = np.random.default_rng(seed)
        for array, mode in zip(params.values(), modes):
            flat = array.reshape(-1)
            pick = {"init": np.zeros(flat.size, bool), "all": np.ones(flat.size, bool),
                    "some": rng.random(flat.size) < 0.5}[mode]
            flat[pick] += rng.uniform(0.5, 1.0, int(pick.sum()))
        params["head.b"][...] = -0.0
        raw = bd.serialize_bundle(_with_params(encoder_bundle, params))
        section = json.loads(raw)["parameters"]
        # The head bias is the flat vector's last element.
        assert _values(section["values"])[-1:].tobytes() == np.float64(-0.0).tobytes()
        changed = _changed_mask(section, sum(array.size for array in params.values()))
        loaded = bd.deserialize_bundle(raw)
        start = 0
        for (name, array), mode in zip(params.items(), modes):
            assert loaded.payload.model.params[name].tobytes() == array.tobytes()
            n_stored = int(changed[start : start + array.size].sum())
            start += array.size
            if name != "head.b" and mode != "some":
                assert n_stored == (array.size if mode == "all" else 0)
        assert bd.serialize_bundle(loaded) == raw

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_changes_across_a_tensor_boundary_round_trip(self, encoder_bundle, data):
        # A run of changed elements that starts in one tensor and ends in a
        # later one sets exactly its bits, whatever tensors it crosses.
        params = _seeded_params(encoder_bundle)
        ends = np.cumsum([array.size for array in params.values()]).tolist()
        boundary = data.draw(st.sampled_from(ends[:-1]), label="boundary")
        start = data.draw(st.integers(max(boundary - 20, 0), boundary - 1), label="start")
        stop = data.draw(st.integers(boundary + 1, min(boundary + 20, ends[-1])), label="stop")
        for array, end in zip(params.values(), ends):
            flat = array.reshape(-1)
            begin = end - flat.size
            flat[max(start - begin, 0) : max(stop - begin, 0)] += 0.5
        raw = bd.serialize_bundle(_with_params(encoder_bundle, params))
        section = json.loads(raw)["parameters"]
        changed = _changed_mask(section, ends[-1])
        assert np.flatnonzero(changed).tolist() == list(range(start, stop))
        loaded = bd.deserialize_bundle(raw)
        for name, array in params.items():
            assert loaded.payload.model.params[name].tobytes() == array.tobytes()
        assert bd.serialize_bundle(loaded) == raw

    def test_init_this_numpy_does_not_draw_is_named(self, encoder_bundle, monkeypatch):
        raw = bd.serialize_bundle(encoder_bundle)
        drawn = enc.init_theta
        monkeypatch.setattr(enc, "init_theta", lambda c, v, seed: drawn(c, v, seed + 1))
        with pytest.raises(BundleInconsistentError,
                           match=r"numpy \(.*\) does not draw the seeded initialization"):
            bd.deserialize_bundle(raw)
