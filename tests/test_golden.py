"""Golden output digests: train → predict → evaluate for both arms, through
cli.main, on small fixed synth_corpus splits, writes the bytes it wrote when
the table below was recorded.

The table covers each arm's predictions file and JSON report, and the bundle
sections that do not depend on the CPU: run_config, vectorizer and
tokenizer. The float sections (linear, parameters, training_report) round
differently under other BLAS kernels and SIMD levels, and provenance records
the numpy version, so they stay out. A change that means to alter one of
these outputs updates the table and says why.
"""
import contextlib
import hashlib
import io
import json

from abusivetext import cli
from abusivetext.corpus import synth_corpus, write_dataset

ARMS = {
    "tfidf_lr": ({"tfidf": {"ngram_max": 2}, "lr": {"epochs": 8}}, ("vectorizer",)),
    "micro_encoder": ({
        "encoder": {"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16, "max_length": 12},
        "encoder_train": {"learning_rate": 5e-2, "epochs": 3, "batch_size": 4},
        "encoder_vocab_size": 80,
    }, ("tokenizer",)),
}

GOLDEN = {
    "tfidf_lr bundle run_config":
        "3f4c105cc32bba0d6efce09c242d24da988447137029f34c42b851a68a4d551c",
    "tfidf_lr bundle vectorizer":
        "fea353cf667a9e252ea783b114499d33701750dcfd71caa889ebb727c5799207",
    "tfidf_lr predictions":
        "2fb24a80a57b26e13e9e37f3cec2c50ee04cf27611467fcff9faa5d396762742",
    "tfidf_lr report":
        "c898e28618a73e4a0820f418911b4686857e1cf0358bf2442d8e78550f4ec106",
    "micro_encoder bundle run_config":
        "13123ebaa0ef6904f0f638d89a27432ae78c89c83f51a6cc4775756ecc9b536b",
    "micro_encoder bundle tokenizer":
        "09d0ab6136e1ff41de6382dcb3b2f47629f5d8be256e146ddb03ffac5f3de97c",
    "micro_encoder predictions":
        "855cc00bae002cb6a6b2db7703b3723e6246d7acf81cbc045125d3c836510d17",
    "micro_encoder report":
        "2f88197a5510f6fcd70cd443f9b654e215948a8798c74f5600031d9af806251b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_the_golden_digests(tmp_path):
    train, dev, test = (tmp_path / f"{name}.tsv" for name in ("train", "dev", "test"))
    train.write_bytes(write_dataset(synth_corpus(11, 16)))
    dev.write_bytes(write_dataset(synth_corpus(12, 6)))
    test.write_bytes(write_dataset(synth_corpus(13, 10)))
    digests = {}
    for kind, (settings, sections) in ARMS.items():
        config, model = tmp_path / f"{kind}.json", tmp_path / f"{kind}.bundle.json"
        preds, report = tmp_path / f"{kind}.preds.tsv", tmp_path / f"{kind}.report.json"
        config.write_text(json.dumps({
            "train_path": str(train), "dev_path": str(dev), "model_path": str(model),
            "model_kind": kind, "seed": 3, **settings,
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--config", str(config)]) == 0
            assert cli.main(["predict", "--model", str(model), "--input", str(test),
                             "--out", str(preds)]) == 0
            assert cli.main(["evaluate", "--gold", str(test), "--pred", str(preds),
                             "--json-out", str(report)]) == 0
        doc = json.loads(model.read_bytes())
        for section in ("run_config", *sections):
            text = json.dumps(doc[section], ensure_ascii=False)
            digests[f"{kind} bundle {section}"] = sha256(text.encode("utf-8"))
        digests[f"{kind} predictions"] = sha256(preds.read_bytes())
        digests[f"{kind} report"] = sha256(report.read_bytes())
    assert digests == GOLDEN
