"""Outside-in tracing of the abusivetext layers for one benchmark run.

``Tracer`` replaces public functions of the package's modules (and
``SubwordTokenizer.pieces_of_word`` on the class) with timing wrappers while
it is active, and puts every original back on exit, also after an error.
Where a module bound a function at import (``cli.parse_dataset``,
``encoder.confusion``), that binding is wrapped too, so calls through either
name are seen. Nothing inside the package changes.

Each call becomes a span (id, name, start, end, parent, run id), kept in
memory. Count metrics are read off the wrapped calls' arguments and return
values: TF-IDF dimension and non-zeros per row, BPE merges, attention-mask
sums, and the words handed to the tokenizer.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (metric prefix, module, attribute): module-level functions to wrap.
FUNCTIONS = (
    ("cli.train", "cli", "cmd_train"),
    ("cli.predict", "cli", "cmd_predict"),
    ("cli.evaluate", "cli", "cmd_evaluate"),
    ("corpus.parse_dataset", "corpus", "parse_dataset"),
    ("textprep.preprocess", "textprep", "preprocess"),
    ("vectorizer.fit", "vectorizer", "fit"),
    ("vectorizer.transform", "vectorizer", "transform"),
    ("linear.train_lr", "linear", "train_lr"),
    ("linear.batch_gradient", "linear", "batch_gradient"),
    ("linear.dataset_loss", "linear", "dataset_loss"),
    ("linear.predict_proba", "linear", "predict_proba"),
    ("encoder.train_subword", "encoder", "train_subword"),
    ("encoder.encode", "encoder", "encode"),
    ("encoder.train_encoder", "encoder", "train_encoder"),
    ("encoder.forward_batch", "encoder", "forward_batch"),
    ("encoder.backward_batch", "encoder", "backward_batch"),
    ("encoder.predict_probs", "encoder", "predict_probs"),
    ("bundle.serialize_bundle", "bundle", "serialize_bundle"),
    ("bundle.deserialize_bundle", "bundle", "deserialize_bundle"),
    ("metrics.confusion", "metrics", "confusion"),
)
# (metric prefix, module, class, method): methods wrapped on their class.
METHODS = (
    ("encoder.pieces_of_word", "encoder", "SubwordTokenizer", "pieces_of_word"),
)
PACKAGE = "abusivetext"
PREFIXES = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS)
# Functions called many times per command; they also get latency percentiles.
PER_CALL = (
    "textprep.preprocess",
    "vectorizer.transform",
    "linear.batch_gradient",
    "linear.dataset_loss",
    "linear.predict_proba",
    "encoder.encode",
    "encoder.pieces_of_word",
    "encoder.forward_batch",
    "encoder.backward_batch",
    "encoder.predict_probs",
)
# Derived counts: name -> (unit, better).
COUNTS = {
    "vectorizer.dimension": ("count", "lower"),
    "vectorizer.nnz_per_row": ("count", "lower"),
    "encoder.merges": ("count", "lower"),
    "encoder.distinct_word_share": ("1", "lower"),
    "encoder.real_token_share": ("1", "higher"),
    "encoder.truncated_share": ("1", "lower"),
}
TRACE_METRICS = {
    "trace.iterations": ("count", "higher"),
    "trace.pipeline_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Tail percentiles tried from the highest down; the first with at least
# TAIL_MIN_BEYOND samples above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs: dict[str, tuple[str, str]] = {}
    for prefix in PREFIXES:
        specs[f"{prefix}.calls"] = ("count", "lower")
        specs[f"{prefix}.s"] = ("s", "lower")
        specs[f"{prefix}.self_s"] = ("s", "lower")
        if prefix in PER_CALL:
            specs[f"{prefix}.p50_ms"] = ("ms", "lower")
            specs[f"{prefix}.tail_ms"] = ("ms", "lower")
            specs[f"{prefix}.tail_pct"] = ("%", "higher")
            specs[f"{prefix}.samples"] = ("count", "higher")
    specs.update(COUNTS)
    specs.update(TRACE_METRICS)
    return specs


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans and counts of the
    calls made meanwhile accumulate until ``take_iteration`` collects them."""

    def __init__(self):
        self.run_id = ""
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self._reset_counts()

    def _reset_counts(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self._words: set[tuple[str, str]] = set()

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _modules(self) -> list:
        return [
            module for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def _install(self) -> None:
        modules = self._modules()
        for prefix, module_name, attr in FUNCTIONS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, attr)
            wrapper = self._wrap(prefix, original, self._observers.get(prefix))
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)
        for prefix, module_name, class_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], class_name)
            original = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap(prefix, original, self._observers.get(prefix)))

    def _patch(self, holder: object, name: str, wrapper: object) -> None:
        self._patched.append((holder, name, vars(holder)[name]))
        setattr(holder, name, wrapper)

    def _restore(self) -> None:
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def _wrap(self, name: str, fn, observe):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.run_id))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- count observers ---------------------------------------------------

    def _on_fit(self, args, kwargs, model) -> None:
        self.counts["vectorizer.dimension"] = model.dimension

    def _on_transform(self, args, kwargs, vector) -> None:
        self.counts["nnz"] += len(vector.entries)
        self.counts["transform_rows"] += 1

    def _on_train_subword(self, args, kwargs, tokenizer) -> None:
        self.counts["encoder.merges"] += len(tokenizer.merges)

    def _on_encode(self, args, kwargs, result) -> None:
        mask = result[1]
        self.counts["encoded_rows"] += 1
        self.counts["full_rows"] += float(mask.sum()) == mask.shape[0]

    def _on_forward_batch(self, args, kwargs, result) -> None:
        mask = kwargs["mask"] if "mask" in kwargs else args[3]
        self.counts["real_positions"] += float(mask.sum())
        self.counts["positions"] += mask.size

    def _on_pieces_of_word(self, args, kwargs, result) -> None:
        word = kwargs["word"] if "word" in kwargs else args[1]
        self._words.add((self.run_id, word))
        self.counts["word_calls"] += 1

    _observers = {
        "vectorizer.fit": _on_fit,
        "vectorizer.transform": _on_transform,
        "encoder.train_subword": _on_train_subword,
        "encoder.encode": _on_encode,
        "encoder.forward_batch": _on_forward_batch,
        "encoder.pieces_of_word": _on_pieces_of_word,
    }

    # -- results -----------------------------------------------------------

    def take_iteration(self, first_span: int) -> dict:
        """Per-name totals, call durations and derived counts of the spans
        recorded from index ``first_span`` on; resets the counts."""
        spans = self.spans[first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for span_id, name, start, end, _, _ in spans:
            calls[name] += 1
            total[name] += end - start
            self_total[name] += end - start - child_time[span_id]
            if name in PER_CALL:
                durations[name].append(end - start)
        c = self.counts
        derived = {
            "vectorizer.dimension": c["vectorizer.dimension"],
            "vectorizer.nnz_per_row": _ratio(c["nnz"], c["transform_rows"]),
            "encoder.merges": c["encoder.merges"],
            "encoder.distinct_word_share": _ratio(len(self._words), c["word_calls"]),
            "encoder.real_token_share": _ratio(c["real_positions"], c["positions"]),
            "encoder.truncated_share": _ratio(c["full_rows"], c["encoded_rows"]),
        }
        self._reset_counts()
        return {
            "calls": calls, "s": total, "self_s": self_total,
            "durations": durations, "derived": derived,
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run_id in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run_id}
                ) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest TAIL_PERCENTILES entry with at
    least TAIL_MIN_BEYOND samples beyond it; the maximum (100) when none has."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, ordered[min(n - 1, int(n * pct / 100.0))]
    return 100.0, ordered[-1]


def layer_metrics(iterations: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced iterations: per-iteration medians for
    calls, times and counts; percentiles over the pooled call durations."""
    out: dict[str, float] = {}
    for prefix in PREFIXES:
        for key in ("calls", "s", "self_s"):
            out[f"{prefix}.{key}"] = statistics.median(it[key].get(prefix, 0) for it in iterations)
        if prefix in PER_CALL:
            pooled = [d for it in iterations for d in it["durations"].get(prefix, ())]
            if pooled:
                pct, value = tail(pooled)
                out[f"{prefix}.p50_ms"] = statistics.median(pooled) * 1e3
                out[f"{prefix}.tail_ms"] = value * 1e3
                out[f"{prefix}.tail_pct"] = pct
            else:
                out[f"{prefix}.p50_ms"] = out[f"{prefix}.tail_ms"] = out[f"{prefix}.tail_pct"] = 0.0
            out[f"{prefix}.samples"] = len(pooled)
    for name in COUNTS:
        out[name] = statistics.median(it["derived"][name] for it in iterations)
    return out
