"""The bench tracer's count observers read what the package returns: a
traced train → predict → evaluate for each arm completes, puts every wrapped
name back, and derives counts that agree with the trained model.
bench/tracer.py is loaded from its path and left as it is."""
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from abusivetext import bundle, cli
from abusivetext.corpus import synth_corpus, write_dataset

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer) -> dict:
    """Every name bound in the package's modules and in the dicts of the
    classes whose methods the tracer wraps."""
    holders = [m for name, m in sys.modules.items()
               if name == "abusivetext" or name.startswith("abusivetext.")]
    for _, module, cls, _ in tracer.METHODS:
        holders.append(getattr(sys.modules[f"abusivetext.{module}"], cls))
    return {(holder, name): value for holder in holders for name, value in vars(holder).items()}


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


@pytest.mark.parametrize("arm", ["tfidf_lr", "micro_encoder"])
def test_traced_pipeline_restores_names_and_counts_the_model(tracer, tmp_path, arm):
    train, dev = tmp_path / "train.tsv", tmp_path / "dev.tsv"
    train.write_bytes(write_dataset(synth_corpus(7, 20)))
    dev.write_bytes(write_dataset(synth_corpus(8, 8)))
    config, model = tmp_path / "run.json", tmp_path / "m.json"
    config.write_text(json.dumps({
        "train_path": str(train), "dev_path": str(dev), "model_path": str(model),
        "model_kind": arm, "seed": 1, "lr": {"epochs": 3},
        "encoder": {"d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 4, "max_length": 8},
        "encoder_train": {"learning_rate": 1e-2, "epochs": 1, "batch_size": 8},
        "encoder_vocab_size": 120,
    }))
    before = bindings(tracer)
    with tracer.Tracer() as traced:
        assert cli.cmd_train is not before[(cli, "cmd_train")]
        run("train", "--config", str(config))
        run("predict", "--model", str(model), "--input", str(dev),
            "--out", str(tmp_path / "p.tsv"))
        run("evaluate", "--gold", str(dev), "--pred", str(tmp_path / "p.tsv"))
    after = bindings(tracer)
    assert [key for key, value in before.items() if after[key] is not value] == []

    iteration = traced.take_iteration(0)
    assert iteration["calls"]["cli.train"] == 1
    derived = iteration["derived"]
    payload = bundle.deserialize_bundle(model.read_bytes()).payload
    if arm == "tfidf_lr":
        assert derived["vectorizer.dimension"] == payload.tfidf.dimension > 0
    else:
        assert derived["encoder.merges"] == len(payload.tokenizer.merges) > 0
