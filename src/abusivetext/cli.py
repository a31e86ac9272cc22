"""Command-line surface: stats, preprocess, synth, train, predict, evaluate.

Every run is reproducible: one seed drives training (the config's ``seed``
or the --seed flag, default 0; nothing is read from the environment), model
bundles are byte-stable JSON, and predictions are written with fixed
6-decimal probabilities so reruns diff clean. ``train`` prints, for either arm,
each epoch's train loss, with its dev macro-F1 given dev, then the last one.

Exit codes:
    0  success
    2  input file not found            (FILE_NOT_FOUND)
    3  encoder training without dev    (DEV_REQUIRED)
    4  bundle format version mismatch  (BUNDLE_VERSION)
    5  bundle fails consistency checks (BUNDLE_INCONSISTENT)
    6  gold/prediction ids disagree    (ID_MISMATCH)
    1  any other error

Failures print one machine-parsable line to stderr: ``ERROR <CODE>: <message>``.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from . import metrics, textprep
from .configs import MICRO_ENCODER, TFIDF_LR, RunConfig
from .corpus import (
    FileFormat,
    Label,
    LabeledExample,
    compute_stats,
    parse_dataset,
    read_examples,
    read_table,
    synth_corpus,
    write_dataset,
)
from .errors import (
    AbusiveTextError,
    BundleInconsistentError,
    BundleVersionError,
    DevRequiredError,
    EmptyData,
    EncodingError,
    IdMismatchError,
    MalformedRow,
    UnknownLabel,
)

# The numpy modules (bundle and the arms it imports) are imported only by
# the commands that train or predict, so the others start without numpy.
if TYPE_CHECKING:
    from . import bundle as bundlemod

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FILE_NOT_FOUND = 2
EXIT_DEV_REQUIRED = 3
EXIT_BUNDLE_VERSION = 4
EXIT_BUNDLE_INCONSISTENT = 5
EXIT_ID_MISMATCH = 6


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _load_run_config(args: argparse.Namespace) -> RunConfig:
    try:
        raw = json.loads(_read_file(args.config).decode("utf-8")) if args.config else {}
    except RecursionError as exc:
        raise ValueError(f"run config nests too deeply: {exc}") from exc
    config = RunConfig.from_dict(raw)
    overrides: dict[str, Any] = {}
    for flag, key in (
        ("train", "train_path"),
        ("dev", "dev_path"),
        ("out", "model_path"),
        ("model_kind", "model_kind"),
        ("language", "language_tag"),
        ("format", "format"),
        ("seed", "seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    return replace(config, **overrides)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

class InputNotFound(FileNotFoundError):
    """An input path that is missing or not a regular file; the only error
    that exits FILE_NOT_FOUND (a missing output directory does not)."""


def _read_file(path: str | Path) -> bytes:
    """The bytes of a regular file; anything else, a directory included, is
    InputNotFound."""
    p = Path(path)
    if not p.is_file():
        reason = "not a regular file" if p.exists() else "file not found"
        raise InputNotFound(f"{reason}: {p}")
    return p.read_bytes()


def _stats_lines(examples: Sequence[LabeledExample]) -> list[str]:
    stats = compute_stats(examples)
    return [
        f"total:        {stats.total}",
        f"abusive:      {stats.per_label[Label.ABUSIVE]}",
        f"non-abusive:  {stats.per_label[Label.NON_ABUSIVE]}",
        f"unlabeled:    {stats.unlabeled}",
    ]


def _report_doc(cm: metrics.ConfusionMatrix) -> dict[str, Any]:
    report = metrics.class_report(cm)
    return {
        "per_class": {
            label.to_text(): asdict(report.per_class[label])
            for label in (Label.ABUSIVE, Label.NON_ABUSIVE)
        },
        "macro_f1": report.macro_f1,
        "accuracy": report.accuracy,
        "confusion": {"tp": cm.tp, "fn": cm.fn, "fp": cm.fp, "tn": cm.tn},
    }


def _print_report_table(cm: metrics.ConfusionMatrix) -> None:
    report = metrics.class_report(cm)
    print(f"{'class':<14}{'precision':>10}{'recall':>10}{'f1':>10}")
    for label in (Label.ABUSIVE, Label.NON_ABUSIVE):
        prf = report.per_class[label]
        print(
            f"{label.to_text():<14}{prf.precision:>10.4f}"
            f"{prf.recall:>10.4f}{prf.f1:>10.4f}"
        )
    print(f"macro F1:  {report.macro_f1:.4f}")
    print(f"accuracy:  {report.accuracy:.4f}")
    print(f"confusion: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    examples = parse_dataset(_read_file(args.input), FileFormat(args.format))
    for line in _stats_lines(examples):
        print(line)
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace) -> int:
    policy = textprep.CleanPolicy(
        remove_urls=not args.keep_urls,
        strip_specials=not args.keep_specials,
        collapse_whitespace=not args.keep_whitespace,
        lowercase_latin=not args.keep_case,
        strip_digits=args.strip_digits,
    )
    lines = [line.rstrip("\n") for line in sys.stdin]
    for cleaned in textprep.preprocess_all(lines, policy):
        print(cleaned)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    examples = synth_corpus(seed=args.seed, n_per_class=args.n_per_class)
    Path(args.out).write_bytes(write_dataset(examples, FileFormat(args.format)))
    print(f"wrote {len(examples)} examples to {args.out}")
    return EXIT_OK


# A training split as (cleaned text, label) pairs.
Pairs = list[tuple[str, Label]]


def _train_tfidf_lr(
    config: RunConfig, train: Pairs, dev: Pairs | None
) -> tuple[bundlemod.TfIdfLrPayload, metrics.TrainReport]:
    from . import bundle as bundlemod, linear, vectorizer

    texts, labels = [text for text, _ in train], [label for _, label in train]
    tfidf = vectorizer.fit(texts, config.tfidf)
    dev_split = None if dev is None else (
        vectorizer.transform_rows(tfidf, [text for text, _ in dev]), [label for _, label in dev]
    )
    model, report = linear.train_lr(
        vectorizer.transform_rows(tfidf, texts), labels, config.lr, config.seed, dev_split
    )
    return bundlemod.TfIdfLrPayload(tfidf=tfidf, linear=model), report


def _train_micro_encoder(
    config: RunConfig, train: Pairs, dev: Pairs | None
) -> tuple[bundlemod.MicroEncoderPayload, metrics.TrainReport]:
    if dev is None:
        raise DevRequiredError(
            "the micro_encoder arm evaluates on dev every epoch; supply --dev"
        )
    from . import bundle as bundlemod, encoder as enc

    tokenizer = enc.train_subword([text for text, _ in train], config.encoder_vocab_size)
    model, report = enc.train_encoder(
        train, dev, tokenizer, config.encoder, config.encoder_train, config.seed
    )
    return bundlemod.MicroEncoderPayload(tokenizer=tokenizer, model=model), report


_TRAINERS = {TFIDF_LR: _train_tfidf_lr, MICRO_ENCODER: _train_micro_encoder}


def cmd_train(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod

    config = _load_run_config(args)
    if not config.train_path:
        raise ValueError("no training file configured (use --train or the config file)")
    if not config.model_path:
        raise ValueError("no model output path configured (use --out)")
    train_bytes = _read_file(config.train_path)
    train_examples = parse_dataset(train_bytes, FileFormat(config.format), has_labels=True)
    if not train_examples:
        raise EmptyData(f"train file {config.train_path} has no rows")
    print(f"train split ({config.train_path}):")
    for line in _stats_lines(train_examples):
        print(f"  {line}")

    def cleaned(examples: tuple[LabeledExample, ...]) -> Pairs:
        texts = textprep.preprocess_all([ex.text for ex in examples], config.preprocessing)
        return [(text, ex.label) for text, ex in zip(texts, examples)]

    dev = dev_bytes = None
    if config.dev_path:
        dev_bytes = _read_file(config.dev_path)
        dev = cleaned(parse_dataset(dev_bytes, FileFormat(config.format), has_labels=True))
        if not dev:
            raise EmptyData(f"dev file {config.dev_path} has no rows")
    payload, report = _TRAINERS[config.model_kind](config, cleaned(train_examples), dev)
    dev_f1 = report.epoch_dev_macro_f1
    for epoch, loss in enumerate(report.epoch_train_losses, start=1):
        column = f" dev_macro_f1 {dev_f1[epoch - 1]:.4f}" if dev_f1 else ""
        print(f"epoch {epoch}: train_loss {loss:.6f}{column}")
    if dev_f1:
        print(f"dev macro F1: {dev_f1[-1]:.4f}")
    bundle = bundlemod.ModelBundle(
        config=config,
        payload=payload,
        report=report,
        provenance=bundlemod.Provenance.of_run(train_bytes, dev_bytes),
    )
    bundlemod.save_bundle(bundle, config.model_path)
    print(f"model bundle written to {config.model_path}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    from . import bundle as bundlemod

    bundle = bundlemod.deserialize_bundle(_read_file(args.model))
    # The labels are never used, so an odd or missing label column is fine.
    examples = parse_dataset(
        _read_file(args.input), FileFormat(args.format), has_labels=False
    )
    probs = bundle.payload.probabilities(
        textprep.preprocess_all([ex.text for ex in examples], bundle.config.preprocessing)
    )
    lines = ["id\tprobability\tlabel"]
    for example, p in zip(examples, probs):
        lines.append(f"{example.id}\t{p:.6f}\t{metrics.decide(p).to_text()}")
    Path(args.out).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {len(probs)} predictions to {args.out}")
    return EXIT_OK


def _parse_predictions(data: bytes) -> dict[str, Label]:
    """Read predictions TSV bytes (id, probability, label) into id -> label.
    Only the id and label columns are read, row by row as a dataset's are."""
    header_line, columns, rows = read_table(data, FileFormat.TSV)
    if "id" not in columns or "label" not in columns:
        raise MalformedRow(header_line, "predictions header must name 'id' and 'label'")
    id_and_label = {"id": columns["id"], "label": columns["label"]}
    return {ex.id: ex.label for ex in read_examples(id_and_label, rows, has_labels=True)}


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold_examples = parse_dataset(
        _read_file(args.gold), FileFormat(args.format), has_labels=True
    )
    predictions = _parse_predictions(_read_file(args.pred))
    gold_ids = [ex.id for ex in gold_examples]
    missing_in_pred = [i for i in gold_ids if i not in predictions]
    gold_id_set = set(gold_ids)
    missing_in_gold = [i for i in predictions if i not in gold_id_set]
    if missing_in_pred or missing_in_gold:
        raise IdMismatchError(missing_in_pred[:10], missing_in_gold[:10])
    gold = [ex.label for ex in gold_examples]
    pred = [predictions[i] for i in gold_ids]
    cm = metrics.confusion(gold, pred)
    _print_report_table(cm)
    if args.json_out:
        doc = _report_doc(cm)
        text = json.dumps(doc, ensure_ascii=False, indent=2, allow_nan=False)
        Path(args.json_out).write_bytes((text + "\n").encode("utf-8"))
        print(f"json report written to {args.json_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and error mapping
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abusivetext",
        description="Train, run, and evaluate binary abusive-comment classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="summarize a dataset file")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--format", choices=["tsv", "csv"], default="tsv")
    p_stats.set_defaults(func=cmd_stats)

    p_prep = sub.add_parser(
        "preprocess", help="clean text from stdin to stdout, one record per line"
    )
    p_prep.add_argument("--keep-urls", action="store_true")
    p_prep.add_argument("--keep-specials", action="store_true")
    p_prep.add_argument("--keep-whitespace", action="store_true")
    p_prep.add_argument("--keep-case", action="store_true")
    p_prep.add_argument("--strip-digits", action="store_true")
    p_prep.set_defaults(func=cmd_preprocess)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--n-per-class", type=int, required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--format", choices=["tsv", "csv"], default="tsv")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model and write its bundle")
    p_train.add_argument("--config", help="JSON run-config file")
    p_train.add_argument("--train", help="training data path")
    p_train.add_argument("--dev", help="dev data path (required for micro_encoder)")
    p_train.add_argument("--out", help="bundle output path")
    p_train.add_argument("--model-kind", choices=list(_TRAINERS))
    p_train.add_argument("--language")
    p_train.add_argument("--format", choices=["tsv", "csv"])
    p_train.add_argument("--seed", type=int)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="run a bundle over a dataset file")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.add_argument("--format", choices=["tsv", "csv"], default="tsv")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="score predictions against gold labels")
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--format", choices=["tsv", "csv"], default="tsv")
    p_eval.add_argument("--json-out")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def _classify_error(exc: Exception) -> tuple[str, int]:
    if isinstance(exc, InputNotFound):
        return "FILE_NOT_FOUND", EXIT_FILE_NOT_FOUND
    if isinstance(exc, OSError):
        return "CONFIG", EXIT_ERROR
    if isinstance(exc, DevRequiredError):
        return "DEV_REQUIRED", EXIT_DEV_REQUIRED
    if isinstance(exc, BundleVersionError):
        return "BUNDLE_VERSION", EXIT_BUNDLE_VERSION
    if isinstance(exc, BundleInconsistentError):
        return "BUNDLE_INCONSISTENT", EXIT_BUNDLE_INCONSISTENT
    if isinstance(exc, IdMismatchError):
        return "ID_MISMATCH", EXIT_ID_MISMATCH
    if isinstance(exc, MalformedRow):
        return "MALFORMED_ROW", EXIT_ERROR
    if isinstance(exc, EncodingError):
        return "ENCODING", EXIT_ERROR
    if isinstance(exc, (UnknownLabel, AbusiveTextError)):
        return "DATA", EXIT_ERROR
    # MemoryError: a setting such as the encoder's max_length asked for an
    # array that cannot be allocated.
    if isinstance(exc, (ValueError, KeyError, TypeError, OverflowError, MemoryError)):
        return "CONFIG", EXIT_ERROR
    return "INTERNAL", EXIT_ERROR


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single mapping point to exit codes
        code, exit_code = _classify_error(exc)
        print(f"ERROR {code}: {exc}", file=sys.stderr)
        return exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
