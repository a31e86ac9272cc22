"""Bundle serialization: byte-stable round-trips and rejection of bad payloads."""
import json

import numpy as np
import pytest

from abusivetext import bundle as bd
from abusivetext import encoder as enc
from abusivetext import linear, vectorizer
from abusivetext.corpus import synth_corpus
from abusivetext.errors import BundleInconsistentError, BundleVersionError
from abusivetext.textprep import CleanPolicy, preprocess


@pytest.fixture(scope="module")
def tfidf_lr_bundle():
    split = synth_corpus(3, 12)
    texts = [preprocess(t) for t in split.texts()]
    tfidf = vectorizer.fit(texts)
    data = [
        (vectorizer.transform(tfidf, t), label)
        for t, label in zip(texts, split.labels())
    ]
    config = linear.TrainConfigLR(epochs=5, seed=3)
    model, report = linear.train_lr(data, config)
    return bd.ModelBundle(
        language_tag="synthetic",
        policy=CleanPolicy(),
        payload=bd.TfIdfLrPayload(
            tfidf=tfidf, linear=model, train_config=config, report=report
        ),
    )


@pytest.fixture(scope="module")
def encoder_bundle():
    split = synth_corpus(4, 8)
    texts = [preprocess(t) for t in split.texts()]
    pairs = list(zip(texts, split.labels()))
    tokenizer = enc.train_subword(texts, vocab_size=72)
    config = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_length=12)
    train_config = enc.TrainConfigEnc(learning_rate=1e-3, epochs=2, batch_size=4, seed=5)
    model, report = enc.train_encoder(pairs, pairs, tokenizer, config, train_config)
    return bd.ModelBundle(
        language_tag="synthetic",
        policy=CleanPolicy(strip_digits=True),
        payload=bd.MicroEncoderPayload(
            tokenizer=tokenizer, model=model, train_config=train_config, report=report
        ),
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
        assert lr_loaded.payload.tfidf.idf == tfidf_lr_bundle.payload.tfidf.idf
        assert lr_loaded.policy == tfidf_lr_bundle.policy
        enc_loaded = bd.deserialize_bundle(bd.serialize_bundle(encoder_bundle))
        assert enc_loaded.payload.model == encoder_bundle.payload.model
        assert enc_loaded.payload.tokenizer == encoder_bundle.payload.tokenizer

    def test_save_and_load_files(self, tmp_path, tfidf_lr_bundle):
        path = tmp_path / "model.bundle.json"
        bd.save_bundle(tfidf_lr_bundle, path)
        assert bd.serialize_bundle(bd.load_bundle(path)) == path.read_bytes()

    def test_kind_comes_from_the_payload(self, tfidf_lr_bundle, encoder_bundle):
        for bundle in (tfidf_lr_bundle, encoder_bundle):
            doc = json.loads(bd.serialize_bundle(bundle))
            assert doc["model_kind"] == bundle.model_kind == bundle.payload.KIND
            assert bd.PAYLOADS[bundle.model_kind] is type(bundle.payload)

    def test_version_field_comes_first(self, tfidf_lr_bundle):
        raw = bd.serialize_bundle(tfidf_lr_bundle).decode("utf-8")
        assert raw.splitlines()[1].strip().startswith('"format_version"')


def _mutate(bundle_bytes: bytes, mutate) -> bytes:
    doc = json.loads(bundle_bytes.decode("utf-8"))
    mutate(doc)
    return json.dumps(doc).encode("utf-8")


class TestRejection:
    def test_wrong_version(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d.update(format_version=2),
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
            lambda d: d.update(model_kind="perceptron"),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_dimension_mismatch(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d["linear"].update(dimension=d["linear"]["dimension"] + 1),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_idf_length_mismatch(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d["vectorizer"]["idf"].append(1.0),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_corrupt_document_frequency(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d["vectorizer"]["document_frequency"].__setitem__(0, 0),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_nonpositive_idf(self, tfidf_lr_bundle):
        raw = _mutate(
            bd.serialize_bundle(tfidf_lr_bundle),
            lambda d: d["vectorizer"]["idf"].__setitem__(0, -1.0),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_nan_parameter_rejected_on_load(self, encoder_bundle):
        raw = _mutate(
            bd.serialize_bundle(encoder_bundle),
            lambda d: d["parameters"][0]["values"].__setitem__(0, float("nan")),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_missing_parameter_tensor(self, encoder_bundle):
        raw = _mutate(
            bd.serialize_bundle(encoder_bundle),
            lambda d: d["parameters"].pop(),
        )
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_wrong_parameter_shape(self, encoder_bundle):
        def bad_shape(d):
            d["parameters"][0]["shape"] = [1, 1]
            d["parameters"][0]["values"] = [0.0]

        raw = _mutate(bd.serialize_bundle(encoder_bundle), bad_shape)
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    def test_tokenizer_vocab_must_match_embedding_rows(self, encoder_bundle):
        def drop_piece(d):
            d["tokenizer"]["pieces"].pop()

        raw = _mutate(bd.serialize_bundle(encoder_bundle), drop_piece)
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    @pytest.mark.parametrize("section", ["preprocessing", "vectorizer", "linear",
                                         "train_config", "training_report"])
    @pytest.mark.parametrize("value", [None, [], "x", 3])
    def test_section_that_is_not_an_object(self, tfidf_lr_bundle, section, value):
        raw = _mutate(bd.serialize_bundle(tfidf_lr_bundle), lambda d: d.update({section: value}))
        with pytest.raises(BundleInconsistentError):
            bd.deserialize_bundle(raw)

    @pytest.mark.parametrize("kind", [[], {}, None, 3])
    def test_kind_that_is_not_a_name(self, tfidf_lr_bundle, kind):
        raw = _mutate(bd.serialize_bundle(tfidf_lr_bundle), lambda d: d.update(model_kind=kind))
        with pytest.raises(BundleInconsistentError, match="unknown model_kind"):
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
