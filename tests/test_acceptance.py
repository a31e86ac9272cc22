"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s``); assertions
carry the same tolerances the line reports. Every expected value is either
computed by an in-test independent oracle (brute-force scorer, finite
differences, first-principles TF-IDF) or is a published reference count
verified by hand arithmetic.
"""
import functools
import json
import math
import unicodedata
from collections import Counter
from random import Random

import numpy as np
import pytest

from abusivetext import cli
from abusivetext import encoder as enc
from abusivetext.corpus import (
    Label,
    VocabProfile,
    compute_stats,
    parse_dataset,
    synth_corpus,
    write_dataset,
)
from abusivetext.linear import TrainConfigLR, batch_gradient, dataset_loss, predict_probas, train_lr
from abusivetext.metrics import ConfusionMatrix, confusion, decide, macro_f1
from abusivetext.textprep import preprocess
from abusivetext.vectorizer import SparseVector, fit, transform, transform_rows

from test_linear import finite_difference_gradient, random_instance
from test_metrics import brute_force_macro_f1, labels_from_matrix
from test_vectorizer import as_token_weights, oracle_vectors


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
            return result

        return run

    return wrap


@criterion(1, "Malayalam fixture {202,130,104,193} -> macro F1 0.6279 +/- 0.0005")
def test_criterion_1_malayalam_metric_fixture():
    score = macro_f1(ConfusionMatrix(tp=202, fn=130, fp=104, tn=193))
    assert abs(score - 0.6279) <= 5e-4


@criterion(2, "Tamil fixture {215,98,78,207} -> 0.7056, not the quoted 0.7293")
def test_criterion_2_tamil_metric_fixture():
    cm = ConfusionMatrix(tp=215, fn=98, fp=78, tn=207)
    score = macro_f1(cm)
    gold, pred = labels_from_matrix(cm)
    independent = brute_force_macro_f1([int(g) for g in gold], [int(p) for p in pred])
    assert abs(score - independent) <= 5e-4
    assert abs(score - 0.7056) <= 5e-4
    # Documented discrepancy: these counts cannot produce the headline 0.7293
    # sometimes attached to the same run; the counts are authoritative here.
    assert abs(score - 0.7293) > 0.02


@criterion(3, "TF-IDF matches first-principles oracle on 200 random corpora (1e-9)")
def test_criterion_3_tfidf_oracle_equivalence():
    rng = Random(271828)
    pool = [f"tok{k}" for k in range(15)]
    for _ in range(200):
        corpus = [
            " ".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))
            for _ in range(rng.randint(1, 20))
        ]
        model = fit(corpus)
        for doc in corpus:
            expected = oracle_vectors(corpus, doc)
            actual = as_token_weights(model, transform(model, doc))
            assert set(actual) == set(expected)
            for token, weight in expected.items():
                assert abs(actual[token] - weight) <= 1e-9


@criterion(4, "LR analytic gradient vs central differences, rel err < 1e-6")
def test_criterion_4_lr_gradient_check():
    rng = Random(424242)
    for _ in range(20):
        dim, data = random_instance(rng, max_dim=8, max_n=16)
        weights = np.array([rng.uniform(-1, 1) for _ in range(dim)])
        bias = rng.uniform(-1, 1)
        l2 = rng.choice([0.0, 1e-4, 0.05])
        analytic_w, analytic_b = batch_gradient(weights, bias, data, l2)
        numeric_w, numeric_b = finite_difference_gradient(
            weights, bias, data, l2, step=1e-5
        )
        analytic = np.append(analytic_w, analytic_b)
        numeric = np.append(numeric_w, numeric_b)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12
        )
        assert rel < 1e-6


@criterion(5, "encoder gradients vs central differences, rel err < 1e-4, all tensors")
def test_criterion_5_encoder_gradient_check():
    from test_encoder import MICRO_CONFIG, gradient_check, micro_batch

    tokenizer = enc.train_subword(["aaab bcd xyz", "hello aaab world"], vocab_size=16)
    ids, mask, labels = micro_batch(tokenizer, seed=17)
    params = enc.init_params(MICRO_CONFIG, tokenizer.vocab_size, seed=29)
    assert gradient_check(params, MICRO_CONFIG, ids, mask, labels, step=1e-5) < 1e-4


@criterion(6, "masking: PAD-tail mutations < 1e-6; attention rows sum to 1 +/- 1e-5")
def test_criterion_6_masking_invariance():
    tokenizer = enc.train_subword(["some words here", "other words there"], 48)
    config = enc.EncoderConfig(d_model=16, n_heads=4, n_layers=2, d_ff=32, max_length=16)
    from test_encoder import forward_one_row

    params = enc.init_params(config, tokenizer.vocab_size, seed=3)
    ids, mask = enc.encode(tokenizer, "some other words", config.max_length)
    reference, attention = forward_one_row(params, config, ids, mask)
    rng = np.random.default_rng(12)
    tail = int(mask.sum())
    assert tail < config.max_length
    for _ in range(20):
        mutated = ids.copy()
        mutated[tail:] = rng.integers(0, tokenizer.vocab_size, ids.size - tail)
        p, _ = forward_one_row(params, config, mutated, mask)
        assert abs(p - reference) < 1e-6
    for attn in attention:
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)


@criterion(7, "separable corpus: LR dev macro F1 >= 0.95; encoder memorizes 64 examples")
def test_criterion_7_end_to_end_separable():
    # TF-IDF + LR arm on synth_corpus(seed 7, 200 per class).
    train = synth_corpus(7, 200)
    dev = synth_corpus(8, 60)
    train_texts = [preprocess(ex.text) for ex in train]
    dev_texts = [preprocess(ex.text) for ex in dev]
    tfidf = fit(train_texts)
    model, _ = train_lr(
        transform_rows(tfidf, train_texts), [ex.label for ex in train],
        TrainConfigLR(), seed=7,
    )
    pred = [decide(p) for p in predict_probas(model, transform_rows(tfidf, dev_texts))]
    assert macro_f1(confusion([ex.label for ex in dev], pred)) >= 0.95

    # Micro-encoder overfit: 64 examples, step size raised to 1e-3, one
    # example per update for 200 epochs (12800 updates) -> accuracy 1.0.
    toy = synth_corpus(
        21, 32,
        profile=VocabProfile(words_min=3, words_max=6, keywords_min=2,
                             keywords_max=4, url_rate=0.0, punct_rate=0.0),
    )
    toy_texts = [preprocess(ex.text) for ex in toy]
    pairs = list(zip(toy_texts, [ex.label for ex in toy]))
    tokenizer = enc.train_subword(toy_texts, vocab_size=160)
    config = enc.EncoderConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64, max_length=16)
    train_config = enc.TrainConfigEnc(learning_rate=1e-3, epochs=200, batch_size=1)
    encoder_model, _ = enc.train_encoder(pairs, pairs, tokenizer, config, train_config, seed=0)
    ids = np.empty((len(pairs), config.max_length), dtype=np.int64)
    mask = np.empty((len(pairs), config.max_length))
    for row, (text, _) in enumerate(pairs):
        ids[row], mask[row] = enc.encode(tokenizer, text, config.max_length)
    probs = enc.predict_probs(encoder_model, ids, mask)
    gold = np.array([float(label) for _, label in pairs])
    accuracy = float(np.mean((probs >= 0.5) == gold))
    assert accuracy == 1.0


@criterion(8, "same seed twice -> byte-identical bundles, predictions, reports")
def test_criterion_8_pipeline_determinism(tmp_path):
    train = tmp_path / "train.tsv"
    dev = tmp_path / "dev.tsv"
    train.write_bytes(write_dataset(synth_corpus(7, 30)))
    dev.write_bytes(write_dataset(synth_corpus(8, 12)))

    arm_configs = {
        "tfidf_lr": {"lr": {"epochs": 10}},
        "micro_encoder": {
            "encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1,
                        "d_ff": 32, "max_length": 12},
            "encoder_train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8},
            "encoder_vocab_size": 96,
        },
    }
    for kind, extra in arm_configs.items():
        artifacts = []
        for attempt in ("first", "second"):
            workdir = tmp_path / f"{kind}-{attempt}"
            workdir.mkdir()
            config_path = workdir / "run.json"
            bundle = workdir / "model.bundle.json"
            preds = workdir / "preds.tsv"
            report = workdir / "report.json"
            config_path.write_text(
                json.dumps(
                    {
                        "train_path": str(train),
                        "dev_path": str(dev),
                        "model_path": str(bundle),
                        "model_kind": kind,
                        "seed": 7,
                        **extra,
                    }
                )
            )
            assert cli.main(["train", "--config", str(config_path)]) == 0
            assert cli.main(
                ["predict", "--model", str(bundle), "--input", str(dev),
                 "--out", str(preds)]
            ) == 0
            assert cli.main(
                ["evaluate", "--gold", str(dev), "--pred", str(preds),
                 "--json-out", str(report)]
            ) == 0
            artifacts.append(
                (bundle.read_bytes(), preds.read_bytes(), report.read_bytes())
            )
        assert artifacts[0] == artifacts[1], f"{kind} pipeline is not deterministic"


def _random_unicode_strings(count: int, seed: int) -> list[str]:
    rng = Random(seed)
    ranges = [
        (0x0020, 0x007E),   # ASCII
        (0x00A0, 0x024F),   # Latin supplements
        (0x0B80, 0x0BFF),   # Tamil
        (0x0D00, 0x0D7F),   # Malayalam
        (0x2000, 0x206F),   # punctuation, odd spaces
        (0x1F300, 0x1F64F), # emoji
    ]
    strings = []
    for _ in range(count):
        length = rng.randint(0, 24)
        chars = []
        for _ in range(length):
            lo, hi = rng.choice(ranges)
            chars.append(chr(rng.randint(lo, hi)))
        strings.append("".join(chars))
    return strings


@criterion(9, "preprocessing idempotent and script-preserving on 10,000 strings")
def test_criterion_9_preprocessing_properties():
    def dravidian(text: str) -> Counter:
        return Counter(
            ch for ch in text
            if "஀" <= ch <= "௿" or "ഀ" <= ch <= "ൿ"
        )

    for text in _random_unicode_strings(10_000, seed=161803):
        once = preprocess(text)
        assert preprocess(once) == once
        out_letters = dravidian(once)
        in_letters = dravidian(text)
        assert all(out_letters[ch] <= in_letters[ch] for ch in out_letters)


@criterion(10, "Tamil-train-shaped file -> stats {2790 total; 1424/1366} exactly")
def test_criterion_10_dataset_stats_fixture():
    rows = ["id\ttext\tlabel"]
    rows += [f"n{k}\tfine comment number {k}\tNon-Abusive" for k in range(1424)]
    rows += [f"a{k}\tbad comment number {k}\tAbusive" for k in range(1366)]
    split = parse_dataset(("\n".join(rows) + "\n").encode("utf-8"))
    stats = compute_stats(split)
    assert stats.total == 2790
    assert stats.per_label[Label.NON_ABUSIVE] == 1424
    assert stats.per_label[Label.ABUSIVE] == 1366
    assert stats.unlabeled == 0
