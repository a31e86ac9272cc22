"""End-to-end CLI behavior: happy paths, exit codes, and reproducibility."""
import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import abusivetext
from abusivetext import bundle as bd
from abusivetext import cli, configs, linear, vectorizer
from abusivetext import encoder as enc
from abusivetext.corpus import (
    FileFormat,
    Label,
    parse_dataset,
    synth_corpus,
    write_dataset,
)
from abusivetext.metrics import TrainReport
from abusivetext.textprep import CleanPolicy, preprocess


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args: str) -> int:
    return cli.main(list(args))


def error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if re.match(r"ERROR [A-Z_]+: ", line)]


@pytest.fixture()
def synth_files(tmp_path):
    train = tmp_path / "train.tsv"
    dev = tmp_path / "dev.tsv"
    train.write_bytes(write_dataset(synth_corpus(7, 40)))
    dev.write_bytes(write_dataset(synth_corpus(8, 15)))
    return train, dev


def gold_and_predictions(tmp_path):
    """A 10-row gold file and a predictions file that agrees with it."""
    gold = tmp_path / "gold.tsv"
    rows = ["id\ttext\tlabel"]
    rows += [f"g{k}\tcomment {k}\t{'Abusive' if k % 2 else 'Non-Abusive'}"
             for k in range(10)]
    gold.write_text("\n".join(rows) + "\n")
    preds = tmp_path / "p.tsv"
    pred_rows = ["id\tprobability\tlabel"]
    pred_rows += [f"g{k}\t0.500000\t{'Abusive' if k % 2 else 'Non-Abusive'}"
                  for k in range(10)]
    preds.write_text("\n".join(pred_rows) + "\n")
    return gold, preds


def seeded(seed):
    """The config's seed setting; None leaves the key out."""
    return {} if seed is None else {"seed": seed}


def lr_config(tmp_path, train, dev, out, epochs=15, seed=7):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "train_path": str(train),
                "dev_path": str(dev),
                "model_path": str(out),
                "model_kind": "tfidf_lr",
                **seeded(seed),
                "lr": {"epochs": epochs},
            }
        )
    )
    return path


def encoder_config(tmp_path, train, dev, out, seed=7):
    path = tmp_path / "run-enc.json"
    path.write_text(
        json.dumps(
            {
                "train_path": str(train),
                "dev_path": str(dev),
                "model_path": str(out),
                "model_kind": "micro_encoder",
                **seeded(seed),
                "encoder": {
                    "d_model": 16, "n_heads": 2, "n_layers": 1,
                    "d_ff": 32, "max_length": 16,
                },
                "encoder_train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8},
                "encoder_vocab_size": 96,
            }
        )
    )
    return path


class TestStatsAndPreprocess:
    def test_stats_output(self, tmp_path, synth_files, capsys):
        train, _ = synth_files
        assert run_cli("stats", "--input", str(train)) == 0
        out = capsys.readouterr().out
        assert "total:        80" in out
        assert "abusive:      40" in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert run_cli("stats", "--input", str(tmp_path / "nope.tsv")) == 2
        assert "ERROR FILE_NOT_FOUND" in capsys.readouterr().err

    def test_preprocess_stdin_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("Check https://x.co NOW!!\nsecond LINE\n")
        )
        assert run_cli("preprocess") == 0
        assert capsys.readouterr().out == "check now\nsecond line\n"

    # \r\n endings, a lone \r, blank lines, a missing final newline, and no
    # input at all.
    PREPROCESS_INPUTS = (
        "Check https://x.co NOW!!\r\nsecond LINE 42\r\n",
        "lone\rcarriage www.ex.com/a\n\n  \n\nநல்ல படம் 2025 Super!!\n",
        "no final newline https://t.co/x ÀB  c",
        "",
    )

    @pytest.mark.parametrize("flags", itertools.product((False, True), repeat=5))
    def test_preprocess_matches_per_line_cleaning(self, flags, monkeypatch, capsys):
        keep_urls, keep_specials, keep_whitespace, keep_case, strip_digits = flags
        argv = [
            flag for flag, on in zip(
                ("--keep-urls", "--keep-specials", "--keep-whitespace",
                 "--keep-case", "--strip-digits"),
                flags,
            ) if on
        ]
        policy = CleanPolicy(
            remove_urls=not keep_urls, strip_specials=not keep_specials,
            collapse_whitespace=not keep_whitespace, lowercase_latin=not keep_case,
            strip_digits=strip_digits,
        )
        for text in self.PREPROCESS_INPUTS:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert run_cli("preprocess", *argv) == 0
            expected = "".join(
                preprocess(line.rstrip("\n"), policy) + "\n" for line in io.StringIO(text)
            )
            assert capsys.readouterr().out == expected

    def test_preprocess_reads_real_stdin_untranslated(self):
        # Through a real pipe, \r\n is not translated, so with the whitespace
        # kept the \r reaches the output.
        text = "".join(self.PREPROCESS_INPUTS)
        proc = subprocess.run(
            [sys.executable, "-m", "abusivetext.cli", "preprocess",
             "--keep-whitespace", "--keep-specials"],
            input=text.encode(), capture_output=True, check=True,
            cwd=Path(abusivetext.__file__).resolve().parents[1],
        )
        policy = CleanPolicy(strip_specials=False, collapse_whitespace=False)
        expected = "".join(
            preprocess(line.rstrip("\n"), policy) + "\n" for line in io.StringIO(text)
        )
        assert b"\r" in proc.stdout
        assert proc.stdout == expected.encode()


class TestTrainPredictEvaluate:
    def test_lr_arm_end_to_end(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "lr.bundle.json"
        config = lr_config(tmp_path, train, dev, out)
        assert run_cli("train", "--config", str(config)) == 0
        stdout = capsys.readouterr().out
        assert "total:        80" in stdout  # dataset stats in the report
        assert "epoch 15:" in stdout
        assert out.exists()

        preds = tmp_path / "preds.tsv"
        assert run_cli(
            "predict", "--model", str(out), "--input", str(dev), "--out", str(preds)
        ) == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "id\tprobability\tlabel"
        assert len(lines) == 31
        prob_cell = lines[1].split("\t")[1]
        assert len(prob_cell.split(".")[1]) == 6  # fixed 6-decimal format

        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--gold", str(dev), "--pred", str(preds),
            "--json-out", str(report),
        ) == 0
        table = capsys.readouterr().out
        assert "macro F1:" in table
        doc = json.loads(report.read_text())
        assert set(doc) == {"per_class", "macro_f1", "accuracy", "confusion"}
        assert doc["macro_f1"] >= 0.95  # separable synthetic corpus

    def test_encoder_arm_end_to_end(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "enc.bundle.json"
        config = encoder_config(tmp_path, train, dev, out)
        assert run_cli("train", "--config", str(config)) == 0
        assert "dev_macro_f1" in capsys.readouterr().out
        preds = tmp_path / "enc-preds.tsv"
        assert run_cli(
            "predict", "--model", str(out), "--input", str(dev), "--out", str(preds)
        ) == 0
        assert len(preds.read_text().splitlines()) == 31

    @pytest.mark.parametrize("make_config", [lr_config, encoder_config])
    def test_dev_line_is_the_last_epochs_column(
        self, tmp_path, synth_files, capsys, make_config
    ):
        train, dev = synth_files
        out = tmp_path / "m.json"
        assert run_cli("train", "--config", str(make_config(tmp_path, train, dev, out))) == 0
        stdout = capsys.readouterr().out
        column = re.findall(r"^epoch \d+: train_loss \S+ dev_macro_f1 (\S+)$",
                            stdout, re.MULTILINE)
        [final] = re.findall(r"^dev macro F1: (\S+)$", stdout, re.MULTILINE)
        report = json.loads(out.read_text())["training_report"]
        assert len(column) == len(report["epoch_train_losses"]) > 1
        assert column == [f"{f1:.4f}" for f1 in report["epoch_dev_macro_f1"]]
        assert final == column[-1]

    def test_lr_without_dev_reports_no_dev_score(self, tmp_path, synth_files, capsys):
        train, _ = synth_files
        out = tmp_path / "m.json"
        assert run_cli("train", "--train", str(train), "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        epochs = re.findall(r"^epoch \d+: train_loss \S+$", stdout, re.MULTILINE)
        assert len(epochs) == configs.TrainConfigLR().epochs
        assert "dev_macro_f1" not in stdout and "dev macro F1" not in stdout
        report = json.loads(out.read_text())["training_report"]
        assert len(report["epoch_train_losses"]) == len(epochs)
        assert report["epoch_dev_macro_f1"] == []

    def test_train_rerun_is_byte_identical(self, tmp_path, synth_files):
        train, dev = synth_files
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out1)))
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out2)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_predict_header_only_input(self, tmp_path, synth_files):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        empty = tmp_path / "empty.tsv"
        empty.write_text("id\ttext\n")
        preds = tmp_path / "empty-preds.tsv"
        assert run_cli(
            "predict", "--model", str(out), "--input", str(empty), "--out", str(preds)
        ) == 0
        assert preds.read_text() == "id\tprobability\tlabel\n"

    def test_evaluate_is_order_independent(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        preds = tmp_path / "p.tsv"
        run_cli("predict", "--model", str(out), "--input", str(dev), "--out", str(preds))
        capsys.readouterr()
        run_cli("evaluate", "--gold", str(dev), "--pred", str(preds))
        first = capsys.readouterr().out
        lines = preds.read_text().splitlines()
        shuffled = [lines[0]] + list(reversed(lines[1:]))
        preds.write_text("\n".join(shuffled) + "\n")
        run_cli("evaluate", "--gold", str(dev), "--pred", str(preds))
        assert capsys.readouterr().out == first

    def test_evaluate_gold_equals_pred_scores_one(self, tmp_path, capsys):
        gold, preds = gold_and_predictions(tmp_path)
        assert run_cli("evaluate", "--gold", str(gold), "--pred", str(preds)) == 0
        assert "macro F1:  1.0000" in capsys.readouterr().out

    def test_predictions_with_byte_order_mark_evaluate(self, tmp_path, capsys):
        # Dataset files may start with a UTF-8 BOM; so may predictions.
        gold, preds = gold_and_predictions(tmp_path)
        preds.write_bytes(b"\xef\xbb\xbf" + preds.read_bytes())
        assert run_cli("evaluate", "--gold", str(gold), "--pred", str(preds)) == 0
        assert "macro F1:  1.0000" in capsys.readouterr().out

    def test_predict_on_training_inputs_matches_gold(self, tmp_path, synth_files):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out, epochs=40)))
        preds = tmp_path / "train-preds.tsv"
        run_cli("predict", "--model", str(out), "--input", str(train), "--out", str(preds))
        gold = {ex.id: ex.label for ex in parse_dataset(train.read_bytes())}
        agree = 0
        rows = preds.read_text().splitlines()[1:]
        for row in rows:
            row_id, _, label = row.split("\t")
            agree += gold[row_id].to_text() == label
        assert agree / len(rows) >= 0.95

    def test_predict_uses_bundle_policy_not_callers(self, tmp_path):
        # Two bundles differing only in preprocessing policy must read the
        # same raw input differently: with Latin lowercasing the shouting
        # keyword hits the vocabulary, without it the text is all-OOV.
        tfidf = vectorizer.fit(["grawk grawk", "melith calm"])
        weights = np.zeros(tfidf.dimension)
        weights[tfidf.token_to_index["grawk"]] = 4.0
        model = linear.LinearModel(weights=weights, bias=0.0)
        payloads = {}
        for name, policy in [
            ("lower", CleanPolicy()),
            ("keep", CleanPolicy(lowercase_latin=False)),
        ]:
            path = tmp_path / f"{name}.bundle.json"
            bd.save_bundle(
                bd.ModelBundle(
                    config=configs.RunConfig(preprocessing=policy),
                    payload=bd.TfIdfLrPayload(tfidf=tfidf, linear=model),
                    report=TrainReport(epoch_train_losses=[0.0]),
                    provenance=bd.Provenance.of_run(b"", None),
                ),
                path,
            )
            payloads[name] = path
        source = tmp_path / "in.tsv"
        source.write_text("id\ttext\nx\tGRAWK!!\n")
        probs = {}
        for name, path in payloads.items():
            out = tmp_path / f"{name}.preds.tsv"
            assert run_cli(
                "predict", "--model", str(path), "--input", str(source),
                "--out", str(out),
            ) == 0
            probs[name] = float(out.read_text().splitlines()[1].split("\t")[1])
        assert probs["lower"] > 0.9   # lowercased "grawk" hits the weight
        assert probs["keep"] == 0.5   # raw "GRAWK" is out of vocabulary

    def test_evaluate_reference_fixture_counts(self, tmp_path, capsys):
        # Files realizing the Malayalam reference confusion matrix
        # {tp 202, fn 130, fp 104, tn 193} must print macro F1 0.6279.
        quadrants = [
            (202, Label.ABUSIVE, Label.ABUSIVE),
            (130, Label.ABUSIVE, Label.NON_ABUSIVE),
            (104, Label.NON_ABUSIVE, Label.ABUSIVE),
            (193, Label.NON_ABUSIVE, Label.NON_ABUSIVE),
        ]
        gold_rows, pred_rows = ["id\ttext\tlabel"], ["id\tprobability\tlabel"]
        k = 0
        for count, gold_label, pred_label in quadrants:
            for _ in range(count):
                gold_rows.append(f"m{k}\tcomment {k}\t{gold_label.to_text()}")
                pred_rows.append(f"m{k}\t0.500000\t{pred_label.to_text()}")
                k += 1
        gold = tmp_path / "gold.tsv"
        preds = tmp_path / "preds.tsv"
        gold.write_text("\n".join(gold_rows) + "\n")
        preds.write_text("\n".join(pred_rows) + "\n")
        report = tmp_path / "r.json"
        assert run_cli(
            "evaluate", "--gold", str(gold), "--pred", str(preds),
            "--json-out", str(report),
        ) == 0
        assert "macro F1:  0.6279" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert abs(doc["macro_f1"] - 0.6279) < 5e-4
        assert doc["confusion"] == {"tp": 202, "fn": 130, "fp": 104, "tn": 193}


class TestExitCodes:
    def test_missing_train_file_is_2(self, tmp_path, capsys):
        rc = run_cli(
            "train", "--train", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "m.json"),
        )
        assert rc == 2
        assert "ERROR FILE_NOT_FOUND" in capsys.readouterr().err

    def test_encoder_without_dev_is_3(self, tmp_path, synth_files, capsys):
        train, _ = synth_files
        rc = run_cli(
            "train", "--train", str(train), "--out", str(tmp_path / "m.json"),
            "--model-kind", "micro_encoder",
        )
        assert rc == 3
        assert "ERROR DEV_REQUIRED" in capsys.readouterr().err

    def test_tampered_version_is_4(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        doc = json.loads(out.read_text())
        doc["format_version"] = 99
        out.write_text(json.dumps(doc))
        rc = run_cli(
            "predict", "--model", str(out), "--input", str(dev),
            "--out", str(tmp_path / "p.tsv"),
        )
        assert rc == 4
        assert "ERROR BUNDLE_VERSION" in capsys.readouterr().err

    def test_inconsistent_bundle_is_5(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        doc = json.loads(out.read_text())
        doc["vectorizer"]["document_frequency"] += " 1"
        out.write_text(json.dumps(doc))
        rc = run_cli(
            "predict", "--model", str(out), "--input", str(dev),
            "--out", str(tmp_path / "p.tsv"),
        )
        assert rc == 5
        assert "ERROR BUNDLE_INCONSISTENT" in capsys.readouterr().err

    def test_id_mismatch_is_6_and_lists_offenders(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        preds = tmp_path / "p.tsv"
        run_cli("predict", "--model", str(out), "--input", str(dev), "--out", str(preds))
        lines = preds.read_text().splitlines()
        lines[1] = "intruder-id" + lines[1][lines[1].index("\t"):]
        preds.write_text("\n".join(lines) + "\n")
        rc = run_cli("evaluate", "--gold", str(dev), "--pred", str(preds))
        assert rc == 6
        err = capsys.readouterr().err
        assert "ERROR ID_MISMATCH" in err
        assert "intruder-id" in err

    @pytest.mark.parametrize("case, code, expected", [
        ("input", 2, "FILE_NOT_FOUND"),
        ("config", 2, "FILE_NOT_FOUND"),
        ("output", 1, "CONFIG"),
        ("predict output in a missing directory", 1, "CONFIG"),
        ("train output in a missing directory", 1, "CONFIG"),
        ("synth output in a missing directory", 1, "CONFIG"),
    ])
    def test_directory_as_path(self, tmp_path, synth_files, capsys, case, code, expected):
        train, dev = synth_files
        model = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, model)))
        capsys.readouterr()
        folder = tmp_path / "folder"
        folder.mkdir()
        nodir = tmp_path / "nodir"
        argv = {
            "input": ["stats", "--input", str(folder)],
            "config": ["train", "--config", str(folder)],
            "output": ["predict", "--model", str(model), "--input", str(dev),
                       "--out", str(folder)],
            "predict output in a missing directory": [
                "predict", "--model", str(model), "--input", str(dev),
                "--out", str(nodir / "p.tsv")],
            "train output in a missing directory": [
                "train", "--train", str(train), "--out", str(nodir / "m.json")],
            "synth output in a missing directory": [
                "synth", "--seed", "1", "--n-per-class", "2", "--out", str(nodir / "x.tsv")],
        }[case]
        assert run_cli(*argv) == code
        [line] = error_lines(capsys.readouterr().err)
        assert line.startswith(f"ERROR {expected}: ")

    def test_malformed_row_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\ttext\tlabel\nx\thello\tabusivee\n")
        rc = run_cli("train", "--train", str(bad), "--out", str(tmp_path / "m.json"))
        assert rc == 1
        assert "ERROR MALFORMED_ROW" in capsys.readouterr().err

    def test_predictions_not_utf8_is_encoding_error(self, tmp_path, capsys):
        gold, preds = gold_and_predictions(tmp_path)
        preds.write_bytes(preds.read_bytes() + b"g10\t0.5\t\xff\xfe\n")
        assert run_cli("evaluate", "--gold", str(gold), "--pred", str(preds)) == 1
        [line] = error_lines(capsys.readouterr().err)
        assert line.startswith("ERROR ENCODING: ")

    def test_unknown_config_key_is_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"train_pth": "x"}))
        rc = run_cli("train", "--config", str(config))
        assert rc == 1
        assert "ERROR CONFIG" in capsys.readouterr().err

    def test_zero_heads_is_config_error(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        path = encoder_config(tmp_path, train, dev, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["encoder"]["n_heads"] = 0
        path.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(path)) == 1
        [line] = error_lines(capsys.readouterr().err)
        assert line.startswith("ERROR CONFIG: ") and "n_heads" in line

    def test_unallocatable_max_length_is_config_error(
        self, tmp_path, synth_files, capsys
    ):
        # 80 training rows of 2**40 int64 ids ask for 640 TiB, more than the
        # 128 TiB user address space, so the allocation fails at once and
        # touches no memory.
        train, dev = synth_files
        out = tmp_path / "m.json"
        path = encoder_config(tmp_path, train, dev, out)
        doc = json.loads(path.read_text())
        doc["encoder"]["max_length"] = 1099511627776
        path.write_text(json.dumps(doc))
        assert len(parse_dataset(train.read_bytes())) * 2**40 * 8 > 2**47
        assert run_cli("train", "--config", str(path)) == 1
        captured = capsys.readouterr()
        [line] = error_lines(captured.err)
        assert line.startswith("ERROR CONFIG: ") and "allocate" in line
        assert not out.exists()

    @pytest.mark.parametrize("make_config", [lr_config, encoder_config])
    def test_empty_dev_file_fails_before_any_training(
        self, tmp_path, synth_files, capsys, make_config
    ):
        train, _ = synth_files
        dev, out = tmp_path / "empty-dev.tsv", tmp_path / "m.json"
        dev.write_text("id\ttext\tlabel\n")
        config = make_config(tmp_path, train, dev, out)
        with mock.patch.object(enc, "train_subword") as train_subword, \
                mock.patch.object(vectorizer, "fit") as fit:
            assert run_cli("train", "--config", str(config)) == 1
        train_subword.assert_not_called()
        fit.assert_not_called()
        assert error_lines(capsys.readouterr().err) == [
            f"ERROR DATA: dev file {dev} has no rows"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("make_config", [lr_config, encoder_config])
    def test_empty_train_file_fails_before_any_training(
        self, tmp_path, synth_files, capsys, make_config
    ):
        _, dev = synth_files
        train, out = tmp_path / "empty-train.tsv", tmp_path / "m.json"
        train.write_text("id\ttext\tlabel\n")
        config = make_config(tmp_path, train, dev, out)
        with mock.patch.object(enc, "train_subword") as train_subword, \
                mock.patch.object(vectorizer, "fit") as fit:
            assert run_cli("train", "--config", str(config)) == 1
        train_subword.assert_not_called()
        fit.assert_not_called()
        captured = capsys.readouterr()
        assert error_lines(captured.err) == [f"ERROR DATA: train file {train} has no rows"]
        assert captured.out == ""
        assert not out.exists()

    def test_tiny_vocab_size_fails_before_reading_data(
        self, tmp_path, synth_files, capsys
    ):
        train, dev = synth_files
        out = tmp_path / "m.json"
        path = encoder_config(tmp_path, train, dev, out)
        doc = json.loads(path.read_text())
        doc["encoder_vocab_size"] = 2
        path.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(path)) == 1
        captured = capsys.readouterr()
        [line] = error_lines(captured.err)
        assert line.startswith("ERROR CONFIG: ") and "encoder_vocab_size" in line
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("make_config", [lr_config, encoder_config])
    @pytest.mark.parametrize("where", ["config", "flag"])
    @pytest.mark.parametrize("train_exists", [True, False])
    def test_negative_seed_fails_before_reading_data(
        self, tmp_path, synth_files, capsys, make_config, where, train_exists
    ):
        # A missing train file would be exit 2 if the data were read first.
        train, dev = synth_files
        out = tmp_path / "m.json"
        if not train_exists:
            train = tmp_path / "missing.tsv"
        config = make_config(tmp_path, train, dev, out, seed=-1 if where == "config" else 7)
        flags = ["--seed", "-1"] if where == "flag" else []
        assert run_cli("train", "--config", str(config), *flags) == 1
        captured = capsys.readouterr()
        [line] = error_lines(captured.err)
        assert line == "ERROR CONFIG: seed must be >= 0"
        assert captured.out == ""
        assert not out.exists()

    def test_divergent_encoder_fails_at_its_epoch(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "m.json"
        path = encoder_config(tmp_path, train, dev, out)
        doc = json.loads(path.read_text())
        doc["encoder_train"]["learning_rate"] = 1e300
        path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert run_cli("train", "--config", str(path)) == 1
        captured = capsys.readouterr()
        [line] = error_lines(captured.err)
        assert line.startswith("ERROR DATA: ") and "diverged at epoch 1:" in line
        assert "epoch 1: train_loss" not in captured.out
        assert not out.exists()

    def test_divergent_lr_fails_at_its_epoch(self, tmp_path, synth_files, capsys):
        train, dev = synth_files
        out = tmp_path / "m.json"
        path = lr_config(tmp_path, train, dev, out)
        doc = json.loads(path.read_text())
        doc["lr"]["learning_rate"] = 1e300
        path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert run_cli("train", "--config", str(path)) == 1
        captured = capsys.readouterr()
        [line] = error_lines(captured.err)
        assert line.startswith("ERROR DATA: ") and "diverged at epoch 1:" in line
        assert "epoch 1: train_loss" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("section, key, token", [
        ("lr", "learning_rate", "NaN"),
        ("lr", "l2_penalty", "Infinity"),
        ("encoder_train", "learning_rate", "-Infinity"),
    ])
    def test_non_finite_step_settings_are_config_errors(
        self, tmp_path, synth_files, capsys, section, key, token
    ):
        train, dev = synth_files
        path = encoder_config(tmp_path, train, dev, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc.setdefault(section, {})[key] = "TOKEN"
        # json.loads accepts these bare tokens, so a run config can carry them.
        path.write_text(json.dumps(doc).replace('"TOKEN"', token))
        assert run_cli("train", "--config", str(path)) == 1
        [line] = error_lines(capsys.readouterr().err)
        assert line.startswith("ERROR CONFIG: ") and f"{key} must be finite" in line

    def test_huge_ngram_max_trains_like_the_longest_row(self, tmp_path, synth_files):
        train, dev = synth_files
        bundles = []
        for ngram_max in (64, 10**12):
            out = tmp_path / f"m{ngram_max}.json"
            path = lr_config(tmp_path, train, dev, out, epochs=2)
            doc = json.loads(path.read_text())
            doc["tfidf"] = {"ngram_max": ngram_max}
            path.write_text(json.dumps(doc))
            assert run_cli("train", "--config", str(path)) == 0
            bundles.append(json.loads(out.read_text()))
        # No synth row comes near 64 words, so 64 already covers every n-gram.
        for doc in bundles:
            doc["run_config"]["tfidf"].pop("ngram_max")
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize("raw", ["[]", "null", "3"])
    def test_bundle_that_is_not_an_object_is_5(self, tmp_path, synth_files, raw, capsys):
        _, dev = synth_files
        model = tmp_path / "m.json"
        model.write_text(raw)
        rc = run_cli(
            "predict", "--model", str(model), "--input", str(dev),
            "--out", str(tmp_path / "p.tsv"),
        )
        assert rc == 5
        [line] = error_lines(capsys.readouterr().err)
        assert line.startswith("ERROR BUNDLE_INCONSISTENT: ")


class TestPredictionsFile:
    def test_bad_label_after_blank_lines_names_its_file_line(self, tmp_path, capsys):
        gold, preds = gold_and_predictions(tmp_path)
        lines = preds.read_text().splitlines()
        # Header, two rows, two blank lines, then the bad label on line 6.
        lines[3:3] = ["", ""]
        lines[5] = "g2\t0.500000\tabusivee"
        preds.write_text("\n".join(lines) + "\n")
        assert run_cli("evaluate", "--gold", str(gold), "--pred", str(preds)) == 1
        [line] = error_lines(capsys.readouterr().err)
        assert line.startswith("ERROR MALFORMED_ROW: row 6: ")

    def test_crlf_blank_line_is_skipped_like_in_datasets(self, tmp_path, capsys):
        gold, preds = gold_and_predictions(tmp_path)
        lines = preds.read_text().splitlines()
        preds.write_bytes(("\r\n".join(lines[:4] + [""] + lines[4:]) + "\r\n").encode())
        assert run_cli("evaluate", "--gold", str(gold), "--pred", str(preds)) == 0
        assert "macro F1:  1.0000" in capsys.readouterr().out


class TestOneRowReader:
    """Datasets (read by stats) and predictions files (read by evaluate) go
    through one row loop, so a bad row ends the same way in either."""

    @pytest.mark.parametrize("reader", ["stats", "evaluate"])
    @pytest.mark.parametrize("row_id, label, message", [
        (" ", "Abusive", "empty id"),
        ("g0", "Abusive", "duplicate id 'g0'"),
        ("g3", "maybe", "unknown label: 'maybe'"),
    ])
    def test_bad_row_is_malformed_at_its_file_line(
        self, tmp_path, capsys, reader, row_id, label, message
    ):
        gold, preds = gold_and_predictions(tmp_path)
        path = gold if reader == "stats" else preds
        lines = path.read_text().splitlines()
        cells = lines[4].split("\t")  # file line 5, the row of g3
        cells[0], cells[-1] = row_id, label
        lines[4] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        argv = {
            "stats": ["stats", "--input", str(gold)],
            "evaluate": ["evaluate", "--gold", str(gold), "--pred", str(preds)],
        }[reader]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"ERROR MALFORMED_ROW: row 5: {message}\n"

    def test_predictions_read_only_id_and_label(self, tmp_path, capsys):
        # An empty cell in a column evaluate does not read is no fault.
        gold, preds = gold_and_predictions(tmp_path)
        lines = preds.read_text().splitlines()
        lines = [lines[0] + "\ttext"] + [line + "\t" for line in lines[1:]]
        preds.write_text("\n".join(lines) + "\n")
        assert run_cli("evaluate", "--gold", str(gold), "--pred", str(preds)) == 0
        assert "macro F1:  1.0000" in capsys.readouterr().out


class TestPredictReadsInputOnce:
    def test_input_bytes_read_once(self, tmp_path, synth_files, monkeypatch):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        reads = []
        real_read = cli._read_file

        def counting_read(path):
            reads.append(str(path))
            return real_read(path)

        monkeypatch.setattr(cli, "_read_file", counting_read)
        preds = tmp_path / "preds.tsv"
        assert run_cli(
            "predict", "--model", str(out), "--input", str(dev), "--out", str(preds)
        ) == 0
        assert reads.count(str(dev)) == 1
        reads.clear()
        assert run_cli("stats", "--input", str(dev)) == 0
        assert reads == [str(dev)]

    def test_missing_input_is_2_with_one_error_line(
        self, tmp_path, synth_files, capsys
    ):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        capsys.readouterr()
        missing = tmp_path / "missing.tsv"
        assert run_cli(
            "predict", "--model", str(out), "--input", str(missing),
            "--out", str(tmp_path / "p.tsv"),
        ) == 2
        lines = error_lines(capsys.readouterr().err)
        assert lines == [f"ERROR FILE_NOT_FOUND: file not found: {missing}"]

    def test_unlabeled_input_predicts_and_labeled_stats_count(
        self, tmp_path, synth_files, capsys
    ):
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        unlabeled = tmp_path / "unlabeled.tsv"
        unlabeled.write_text("id\ttext\na\tyou idiot\nb\tnice video\n")
        preds = tmp_path / "p.tsv"
        assert run_cli(
            "predict", "--model", str(out), "--input", str(unlabeled),
            "--out", str(preds),
        ) == 0
        assert [line.split("\t")[0] for line in preds.read_text().splitlines()] == [
            "id", "a", "b",
        ]
        capsys.readouterr()
        assert run_cli("stats", "--input", str(unlabeled)) == 0
        assert "unlabeled:    2" in capsys.readouterr().out

    def test_label_column_is_not_read(self, tmp_path, synth_files):
        # Predictions are the same bytes whether the input's labels are
        # valid, unknown or missing: predict reads only id and text.
        train, dev = synth_files
        out = tmp_path / "m.json"
        run_cli("train", "--config", str(lr_config(tmp_path, train, dev, out)))
        rows = [line.split("\t") for line in dev.read_text().splitlines()]
        assert rows[0] == ["id", "text", "label"]
        variants = {
            "valid": rows,
            "unknown": [rows[0]] + [[i, t, "maybe"] for i, t, _ in rows[1:]],
            "missing": [[i, t] for i, t, _ in rows],
        }
        outputs = {}
        for name, variant in variants.items():
            source = tmp_path / f"{name}.tsv"
            source.write_text("".join("\t".join(r) + "\n" for r in variant))
            preds = tmp_path / f"{name}-preds.tsv"
            assert run_cli(
                "predict", "--model", str(out), "--input", str(source), "--out", str(preds)
            ) == 0
            outputs[name] = preds.read_bytes()
        assert outputs["unknown"] == outputs["valid"] == outputs["missing"]


class TestReadmeRecipe:
    def test_encoder_recipe_reaches_high_dev_macro_f1(
        self, tmp_path, monkeypatch, capsys
    ):
        """Run the README's synth commands and encoder run config as written."""
        text = README.read_text(encoding="utf-8")
        synth_commands = re.findall(r"^abusivetext (synth .*)$", text, re.MULTILINE)
        [run_json] = re.findall(
            r"^cat > run\.json <<'JSON'\n(.*?)^JSON$", text, re.MULTILINE | re.DOTALL
        )
        assert "abusivetext train --config run.json" in text
        assert len(synth_commands) == 2
        monkeypatch.chdir(tmp_path)
        for command in synth_commands:
            assert run_cli(*shlex.split(command)) == 0
        Path("run.json").write_text(run_json, encoding="utf-8")
        capsys.readouterr()
        assert run_cli("train", "--config", "run.json") == 0
        epochs = re.findall(r"^epoch \d+: .* dev_macro_f1 (\S+)$",
                            capsys.readouterr().out, re.MULTILINE)
        assert len(epochs) == json.loads(run_json)["encoder_train"]["epochs"]
        assert float(epochs[-1]) >= 0.95


class TestRunConfig:
    def test_round_trip(self):
        config = cli.RunConfig.from_dict(
            {"train_path": "a.tsv", "seed": 3, "lr": {"epochs": 7}}
        )
        assert cli.RunConfig.from_dict(config.to_dict()) == config

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError):
            cli.RunConfig.from_dict({"lr": {"epoch": 7}})

    def test_run_seed_is_the_only_seed(self):
        assert cli.RunConfig().seed == 0
        for cls in cli.RunConfig._NESTED.values():
            assert "seed" not in {f.name for f in dataclasses.fields(cls)}, cls

    @pytest.mark.parametrize("size", [-1, 0, 3])
    def test_vocab_size_below_four_rejected_at_construction(self, size):
        with pytest.raises(ValueError, match="encoder_vocab_size must be >= 4"):
            cli.RunConfig(encoder_vocab_size=size)
        with pytest.raises(ValueError, match="encoder_vocab_size must be >= 4"):
            cli.RunConfig.from_dict({"encoder_vocab_size": size})
        assert cli.RunConfig(encoder_vocab_size=4).encoder_vocab_size == 4

    def test_model_kinds_have_one_source(self):
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        [kind] = [a for a in sub.choices["train"]._actions if a.dest == "model_kind"]
        assert kind.choices == list(bd.PAYLOADS) == [configs.TFIDF_LR, configs.MICRO_ENCODER]
        assert cli.RunConfig().model_kind == configs.TFIDF_LR
        assert all(cls.KIND == name for name, cls in bd.PAYLOADS.items())
        # The names are spelled out as string literals in configs.py alone.
        src = Path(cli.__file__).parent
        for name in (configs.TFIDF_LR, configs.MICRO_ENCODER):
            literal = re.compile(f"[\"']{name}[\"']")
            spelled = [path.name for path in sorted(src.glob("*.py"))
                       for _ in literal.finditer(path.read_text(encoding="utf-8"))]
            assert spelled == ["configs.py"], (name, spelled)

    def test_no_module_reads_the_environment(self):
        # A setting read from the environment is an input no bundle records,
        # so a replay of the recorded config could train something else.
        reads = re.compile(r"\benviron\b|\bgetenv\b")
        src = Path(cli.__file__).parent
        readers = [path.name for path in sorted(src.glob("*.py"))
                   if reads.search(path.read_text(encoding="utf-8"))]
        assert readers == []


def replay(tmp_path, run_config, train, dev) -> bytes:
    """The bundle a recorded run config trains with its paths put back."""
    config, again = tmp_path / "replay.json", tmp_path / "again.json"
    config.write_text(json.dumps(
        {**run_config, "train_path": str(train), "dev_path": str(dev),
         "model_path": str(again)}
    ))
    assert run_cli("train", "--config", str(config)) == 0
    return again.read_bytes()


class TestProvenance:
    @pytest.mark.parametrize("make_config, arm_train", [
        (lr_config, "lr"), (encoder_config, "encoder_train"),
    ])
    def test_records_input_digests_versions_and_replayable_config(
        self, tmp_path, synth_files, make_config, arm_train
    ):
        train, dev = synth_files
        out = tmp_path / "m.json"
        assert run_cli("train", "--config", str(make_config(tmp_path, train, dev, out, seed=9))) == 0
        doc = json.loads(out.read_text())
        provenance = doc["provenance"]
        assert provenance["train_sha256"] == hashlib.sha256(train.read_bytes()).hexdigest()
        assert provenance["dev_sha256"] == hashlib.sha256(dev.read_bytes()).hexdigest()
        assert provenance["abusivetext_version"] == abusivetext.__version__
        assert provenance["numpy_version"] == np.__version__
        run_config = doc["run_config"]
        assert not {"train_path", "dev_path", "model_path"} & set(run_config)
        assert run_config["seed"] == 9
        assert "seed" not in run_config[arm_train]
        assert str(tmp_path) not in out.read_text()
        # With the paths put back, the recorded config trains the same bundle.
        assert replay(tmp_path, run_config, train, dev) == out.read_bytes()

    @pytest.mark.parametrize("make_config", [lr_config, encoder_config])
    def test_replay_of_an_unseeded_run_ignores_a_seed_variable(
        self, tmp_path, synth_files, make_config, monkeypatch
    ):
        # A run given no seed records seed 0, and the environment the replay
        # runs in cannot change what it trains.
        train, dev = synth_files
        out = tmp_path / "m.json"
        config = make_config(tmp_path, train, dev, out, seed=None)
        assert run_cli("train", "--config", str(config)) == 0
        run_config = json.loads(out.read_text())["run_config"]
        monkeypatch.setenv("ABUSIVETEXT_SEED", "3")
        assert replay(tmp_path, run_config, train, dev) == out.read_bytes()
        assert run_config["seed"] == 0

    def test_no_dev_is_null(self, tmp_path, synth_files):
        train, _ = synth_files
        out = tmp_path / "m.json"
        assert run_cli("train", "--train", str(train), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["dev_sha256"] is None
        assert doc["run_config"]["seed"] == 0

    @pytest.mark.parametrize("make_config", [lr_config, encoder_config])
    def test_load_and_resave_reproduces_the_bundle(self, tmp_path, synth_files, make_config):
        train, dev = synth_files
        out = tmp_path / "m.json"
        assert run_cli("train", "--config", str(make_config(tmp_path, train, dev, out))) == 0
        raw = out.read_bytes()
        assert bd.serialize_bundle(bd.deserialize_bundle(raw)) == raw


# Runs one CLI command per stdin line in this process, with the package under
# test first on the path.
RUN_LINES = """
import sys
sys.path.insert(0, {src!r})
from abusivetext.cli import main
for line in sys.stdin:
    assert main(line.split()) == 0, line
"""


def openblas_picks_its_kernel_at_run_time() -> bool:
    return platform.machine() in ("x86_64", "AMD64") and "DYNAMIC_ARCH" in str(
        np.show_config(mode="dicts")
    )


class TestAcrossBlasKernels:
    """An OpenBLAS built with DYNAMIC_ARCH picks its kernels for the CPU it
    runs on; OPENBLAS_CORETYPE stands in for another machine's choice."""

    @pytest.mark.skipif(
        not openblas_picks_its_kernel_at_run_time(),
        reason="needs x86-64 numpy on an OpenBLAS built with DYNAMIC_ARCH",
    )
    def test_only_encoder_bundles_depend_on_the_kernel(self, tmp_path, synth_files):
        train, dev = synth_files
        commands = "".join(
            f"train --config {config}\n"
            f"predict --model {arm}.bundle.json --input ../{dev.name} --out {arm}.preds.tsv\n"
            f"evaluate --gold ../{dev.name} --pred {arm}.preds.tsv --json-out {arm}.report.json\n"
            for arm, config in (("lr", "run.json"), ("enc", "run-enc.json"))
        )
        script = RUN_LINES.format(src=str(Path(abusivetext.__file__).resolve().parents[1]))
        outputs = []
        for core in ("Haswell", "Prescott"):
            work = tmp_path / core
            work.mkdir()
            relative = (Path("..") / train.name, Path("..") / dev.name)
            lr_config(work, *relative, Path("lr.bundle.json"))
            encoder_config(work, *relative, Path("enc.bundle.json"))
            proc = subprocess.run(
                [sys.executable, "-c", script], input=commands, cwd=work,
                env={**os.environ, "OPENBLAS_CORETYPE": core},
                capture_output=True, text=True, check=True,
            )
            files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
            outputs.append({**files, "stdout": proc.stdout, "stderr": proc.stderr})
        haswell, prescott = outputs
        assert len(haswell) == 10 and haswell.keys() == prescott.keys()
        assert [name for name in haswell if haswell[name] != prescott[name]] == [
            "enc.bundle.json"
        ]


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        train = tmp_path / "t.tsv"
        train.write_bytes(write_dataset(synth_corpus(1, 3)))
        # Run from the directory the package was imported from, so the child
        # tests this copy whether or not PYTHONPATH names it.
        proc = subprocess.run(
            [sys.executable, "-m", "abusivetext.cli", "stats", "--input", str(train)],
            capture_output=True, text=True,
            cwd=Path(abusivetext.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "total:        6" in proc.stdout

    def test_csv_pipeline(self, tmp_path):
        train = tmp_path / "t.csv"
        train.write_bytes(write_dataset(synth_corpus(2, 10), FileFormat.CSV))
        assert run_cli("stats", "--input", str(train), "--format", "csv") == 0
