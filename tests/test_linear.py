"""Logistic regression: sigmoid stability, gradient correctness via central
finite differences, and training behavior on tiny instances."""
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import abusivetext
from abusivetext import vectorizer
from abusivetext.corpus import Label, synth_corpus, write_dataset
from abusivetext.errors import DimensionMismatch, EmptyData, TrainingDiverged
from abusivetext.linear import (
    LinearModel,
    TrainConfigLR,
    batch_gradient,
    dataset_loss,
    predict_proba,
    predict_probas,
    sigmoid,
    train_lr,
)
from abusivetext.metrics import decide, decided_macro_f1
from abusivetext.textprep import preprocess
from abusivetext.vectorizer import Rows, SparseVector


def random_instance(rng: Random, max_dim: int = 8, max_n: int = 16):
    """A random small training set with dense-ish sparse vectors."""
    dim = rng.randint(1, max_dim)
    n = rng.randint(1, max_n)
    data = []
    for _ in range(n):
        entries = tuple(
            (i, rng.uniform(-2.0, 2.0))
            for i in range(dim)
            if rng.random() < 0.7
        )
        entries = tuple((i, w) for i, w in entries if w != 0.0)
        data.append(
            (SparseVector(entries=entries, dimension=dim), Label(rng.randint(0, 1)))
        )
    return dim, data


def split(data):
    """The CSR rows and the labels of (SparseVector, label) pairs."""
    return Rows.pack([x for x, _ in data], data[0][0].dimension), [y for _, y in data]


def sigmoid_one(z):
    """The shared sigmoid of one score, called on a one-element array."""
    return sigmoid(np.array([z]))[0]


def softplus_one(z):
    """log(1 + e^z) of one score, in the loss kernel's overflow-free form,
    computed on a one-element array."""
    a = np.array([z])
    return (np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a))))[0]


def finite_difference_gradient(weights, bias, data, l2_penalty, step=1e-5):
    """Central differences of the full-batch loss, coordinate by coordinate."""
    grad_w = np.zeros_like(weights)
    for i in range(weights.size):
        bumped = weights.copy()
        bumped[i] += step
        up = dataset_loss(bumped, bias, data, l2_penalty)
        bumped[i] -= 2 * step
        down = dataset_loss(bumped, bias, data, l2_penalty)
        grad_w[i] = (up - down) / (2 * step)
    grad_b = (
        dataset_loss(weights, bias + step, data, l2_penalty)
        - dataset_loss(weights, bias - step, data, l2_penalty)
    ) / (2 * step)
    return grad_w, grad_b


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_log_three_is_three_quarters(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_large_negative_no_overflow(self):
        p = sigmoid(-1000.0)
        assert 0.0 < p <= 1e-300
        assert math.isfinite(p)

    def test_large_positive_no_overflow(self):
        p = sigmoid(1000.0)
        assert p == pytest.approx(1.0) and p < 1.0

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_symmetry(self, z):
        assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    def test_open_unit_interval(self, z):
        assert 0.0 < sigmoid(z) < 1.0

    @pytest.mark.parametrize("offset", [0, 1, 3])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 17, 31, 64, 65, 129, 1001])
    def test_vector_equals_one_element_calls(self, size, offset):
        # Unaligned views too: a row's probability must not depend on the
        # rows scored with it, nor on where it sits in the array.
        rng = np.random.default_rng(size * 7 + offset)
        z = np.concatenate([rng.normal(0.0, 8.0, size + offset), [0.0, -0.0, 40.0, -745.0]])
        z = z[offset:]
        expected = np.array([sigmoid(z[i : i + 1])[0] for i in range(len(z))])
        assert sigmoid(z).tobytes() == expected.tobytes()

    @given(st.lists(st.floats(min_value=-800.0, max_value=800.0), max_size=40))
    def test_vector_equals_one_element_calls_on_any_list(self, zs):
        z = np.array(zs, dtype=np.float64)
        assert sigmoid(z).tolist() == [sigmoid_one(v) for v in zs]

    def test_package_import_loads_no_numpy(self):
        # Kept out of metrics.py, the array sigmoid leaves the light
        # commands' import free of numpy.
        src = Path(abusivetext.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import abusivetext; "
            "print('numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_every_export_resolves_without_numpy(self):
        # A name left in __all__ after its definition is gone fails here.
        src = Path(abusivetext.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import abusivetext; "
            "missing = [n for n in abusivetext.__all__ if not hasattr(abusivetext, n)]; "
            "print(missing, 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[] False"


# Runs each argv through cli.main in one fresh interpreter and prints, as
# its last line, the numpy and package modules loaded after the import and
# after each command.
RUN_COMMANDS = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from abusivetext import cli

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("abusivetext."))

seen = {{"import": [0, loaded()]}}
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    seen[" ".join(argv)] = [code, loaded()]
print(json.dumps(seen))
"""
ARRAY_MODULES = {
    "numpy",
    "abusivetext.bundle",
    "abusivetext.encoder",
    "abusivetext.linear",
    "abusivetext.vectorizer",
}


def run_fresh(*commands: list[str]) -> dict[str, list]:
    """{"import" or joined argv: [exit code, modules loaded after it]}."""
    src = Path(abusivetext.__file__).resolve().parents[1]
    code = RUN_COMMANDS.format(src=str(src), commands=[list(c) for c in commands])
    proc = subprocess.run(
        [sys.executable, "-c", code], input="Hello  WORLD http://x.y\n",
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestCliLoadsNumpyOnlyToTrainOrPredict:
    """Only train and predict import the array modules; every other command,
    and the CLI's own import, starts without numpy."""

    @pytest.fixture()
    def files(self, tmp_path):
        data = tmp_path / "data.tsv"
        data.write_bytes(write_dataset(synth_corpus(3, 6)))
        preds = tmp_path / "preds.tsv"
        rows = [line.split("\t") for line in data.read_text().splitlines()[1:]]
        preds.write_text(
            "id\tprobability\tlabel\n"
            + "".join(f"{r[0]}\t0.500000\t{r[2]}\n" for r in rows)
        )
        return tmp_path, data, preds

    def test_light_commands_load_no_numpy(self, files):
        tmp_path, data, preds = files
        seen = run_fresh(
            ["stats", "--input", str(data)],
            ["preprocess", "--keep-case"],
            ["synth", "--seed", "1", "--n-per-class", "2", "--out", str(tmp_path / "s.tsv")],
            ["evaluate", "--gold", str(data), "--pred", str(preds)],
            ["--help"],
            ["stats", "--input", str(tmp_path / "missing.tsv")],
        )
        codes = {command: code for command, (code, _) in seen.items()}
        assert list(codes.values()) == [0, 0, 0, 0, 0, 0, 2], codes
        for command, (_, modules) in seen.items():
            assert ARRAY_MODULES.isdisjoint(modules), (command, modules)
            assert "abusivetext.configs" in modules

    def test_train_and_predict_load_numpy(self, files):
        tmp_path, data, _ = files
        model = tmp_path / "m.json"
        for argv in (
            ["train", "--train", str(data), "--out", str(model), "--seed", "1"],
            ["predict", "--model", str(model), "--input", str(data),
             "--out", str(tmp_path / "p.tsv")],
        ):
            (_, imported), (code, modules) = run_fresh(argv).values()
            assert ARRAY_MODULES.isdisjoint(imported)
            assert code == 0 and ARRAY_MODULES <= set(modules), (argv, modules)


class TestPredictProba:
    def test_zero_model_predicts_half(self):
        model = LinearModel(weights=np.zeros(4), bias=0.0)
        x = SparseVector(entries=((1, 0.3), (3, -2.0)), dimension=4)
        assert predict_proba(model, x) == 0.5

    def test_one_hot_reduces_to_sigmoid(self):
        weights = np.zeros(5)
        weights[2] = math.log(3.0)
        model = LinearModel(weights=weights, bias=0.0)
        x = SparseVector(entries=((2, 1.0),), dimension=5)
        assert predict_proba(model, x) == pytest.approx(0.75, abs=1e-15)

    def test_dimension_is_the_weight_count(self):
        assert LinearModel(weights=np.zeros(3), bias=0.0).dimension == 3
        for weights in (np.zeros((2, 2)), np.float64(0.0)):
            with pytest.raises(DimensionMismatch, match="expected 1-D"):
                LinearModel(weights=weights, bias=0.0)

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(4), bias=0.0)
        with pytest.raises(DimensionMismatch):
            predict_proba(model, SparseVector(entries=(), dimension=5))

    def test_dimension_mismatch_anywhere_in_a_batch(self):
        model = LinearModel(weights=np.zeros(4), bias=0.0)
        ok = SparseVector(entries=((1, 0.3),), dimension=4)
        with pytest.raises(DimensionMismatch):
            predict_probas(
                model, Rows.pack([ok, SparseVector(entries=(), dimension=5), ok], 4)
            )

    def test_rows_of_another_dimension(self):
        model = LinearModel(weights=np.zeros(4), bias=0.0)
        with pytest.raises(DimensionMismatch):
            predict_probas(model, Rows.pack([SparseVector(entries=(), dimension=5)], 5))


class TestDecide:
    def test_tie_goes_to_abusive(self):
        assert decide(0.5) == Label.ABUSIVE

    def test_below_threshold(self):
        assert decide(0.4999) == Label.NON_ABUSIVE

    def test_boundary_one(self):
        assert decide(1.0) == Label.ABUSIVE

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_probability(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert decide(lo) <= decide(hi)


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = Random(20240100)
        for _ in range(25):
            dim, data = random_instance(rng)
            weights = np.array([rng.uniform(-1, 1) for _ in range(dim)])
            bias = rng.uniform(-1, 1)
            l2 = rng.choice([0.0, 1e-4, 0.05])
            analytic_w, analytic_b = batch_gradient(weights, bias, data, l2)
            numeric_w, numeric_b = finite_difference_gradient(weights, bias, data, l2)
            analytic = np.append(analytic_w, analytic_b)
            numeric = np.append(numeric_w, numeric_b)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-6

    def test_penalty_excludes_bias(self):
        data = [(SparseVector(entries=((0, 1.0),), dimension=1), Label(1))]
        weights = np.array([2.0])
        with_pen = batch_gradient(weights, 0.5, data, 0.1)
        without = batch_gradient(weights, 0.5, data, 0.0)
        assert with_pen[0][0] == pytest.approx(without[0][0] + 0.1 * 2.0)
        assert with_pen[1] == without[1]


class TestTrainLr:
    def test_separable_two_points(self):
        e0 = SparseVector(entries=((0, 1.0),), dimension=2)
        e1 = SparseVector(entries=((1, 1.0),), dimension=2)
        data = [(e0, Label(1)), (e1, Label(0))]
        model, report = train_lr(
            *split(data), TrainConfigLR(learning_rate=1.0, epochs=300), seed=1
        )
        assert predict_proba(model, e0) > 0.9
        assert predict_proba(model, e1) < 0.1
        assert report.epoch_train_losses[-1] < 0.1

    def test_lr_zero_returns_zero_model(self):
        data = [(SparseVector(entries=((0, 1.0),), dimension=1), Label(1))]
        model, _ = train_lr(*split(data), TrainConfigLR(learning_rate=0.0, epochs=1))
        assert model.weights[0] == 0.0 and model.bias == 0.0

    def test_epochs_zero_forbidden(self):
        with pytest.raises(ValueError):
            TrainConfigLR(epochs=0)

    @pytest.mark.parametrize("field", ["learning_rate", "l2_penalty"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_settings_forbidden(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfigLR(**{field: value})

    def test_non_finite_loss_fails_at_its_epoch(self):
        split = synth_corpus(2, 10)
        texts = [preprocess(ex.text) for ex in split]
        tfidf = vectorizer.fit(texts)
        rows = vectorizer.transform_rows(tfidf, texts)
        config = TrainConfigLR(learning_rate=1e300, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match="epoch 1:"
        ):
            train_lr(rows, [ex.label for ex in split], config)

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            train_lr(Rows.pack([], 1), [], TrainConfigLR())

    def test_inconsistent_dimensions(self):
        data = [
            (SparseVector(entries=(), dimension=2), Label(0)),
            (SparseVector(entries=(), dimension=3), Label(1)),
        ]
        with pytest.raises(DimensionMismatch):
            train_lr(*split(data), TrainConfigLR())

    def test_loss_non_increasing_at_small_step(self):
        rng = Random(77)
        _, data = random_instance(rng, max_dim=6, max_n=12)
        _, report = train_lr(
            *split(data),
            TrainConfigLR(learning_rate=0.01, epochs=40, batch_size=len(data)),
            seed=0,
        )
        losses = report.epoch_train_losses
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_bit_identical_across_runs(self):
        rng = Random(123)
        _, data = random_instance(rng)
        config = TrainConfigLR(epochs=8)
        m1, r1 = train_lr(*split(data), config, seed=42)
        m2, r2 = train_lr(*split(data), config, seed=42)
        assert m1 == m2
        assert r1.epoch_train_losses == r2.epoch_train_losses

    def test_dev_scoring_leaves_the_model_and_losses_alone(self):
        data, dev = tfidf_corpus(5)[:40], tfidf_corpus(5)[40:]
        config = TrainConfigLR(epochs=6, batch_size=7)
        model, report = train_lr(*split(data), config, seed=3)
        scored, scored_report = train_lr(*split(data), config, 3, split(dev))
        assert np.array_equal(scored.weights, model.weights)
        assert scored.bias == model.bias
        assert scored_report.epoch_train_losses == report.epoch_train_losses
        assert report.epoch_dev_macro_f1 == []
        assert len(scored_report.epoch_dev_macro_f1) == 6

    def test_dev_rows_of_another_dimension(self):
        data = [(SparseVector(entries=((0, 1.0),), dimension=1), Label(1))]
        dev = [(SparseVector(entries=((1, 1.0),), dimension=2), Label(0))]
        with pytest.raises(DimensionMismatch):
            train_lr(*split(data), TrainConfigLR(epochs=1), 0, split(dev))

    def test_dev_macro_f1_is_each_epochs_model_scored(self):
        # Training for k epochs draws the first k shuffles of a longer run,
        # so it returns the longer run's model at epoch k.
        data, dev = tfidf_corpus(7)[:40], tfidf_corpus(7)[40:]
        dev_rows, dev_labels = split(dev)
        config = TrainConfigLR(epochs=8, batch_size=5, learning_rate=0.5)
        _, report = train_lr(*split(data), config, 4, (dev_rows, dev_labels))
        expected = []
        for epochs in range(1, config.epochs + 1):
            model, _ = train_lr(*split(data), replace(config, epochs=epochs), seed=4)
            expected.append(decided_macro_f1(dev_labels, predict_probas(model, dev_rows)))
        assert report.epoch_dev_macro_f1 == expected
        assert len(set(expected)) > 1  # the score moves as the model learns

    def test_seed_changes_shuffled_training(self):
        rng = Random(9)
        while True:
            _, data = random_instance(rng, max_dim=6, max_n=16)
            if len(data) > 4 and len({y for _, y in data}) == 2:
                break
        config = TrainConfigLR(epochs=3, batch_size=2)
        m1, _ = train_lr(*split(data), config, seed=1)
        m2, _ = train_lr(*split(data), config, seed=2)
        assert not np.array_equal(m1.weights, m2.weights)


def reference_score(weights, bias, x):
    """w . x + b with the products added one by one, left to right."""
    total = 0.0
    for i, w in x.entries:
        total += weights[i] * w
    return bias + total


def reference_train_lr(data, config, seed, shuffle=True):
    """Per-entry mini-batch gradient descent with explicit += loops: the
    oracle for the CSR kernels behind train_lr. With shuffle False the rows
    go in file order, which train_lr never does: an oracle for one batch."""
    weights = np.zeros(data[0][0].dimension)
    bias = 0.0
    losses = []
    order = list(range(len(data)))
    rng = Random(seed)
    for _ in range(config.epochs):
        if shuffle:
            rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = [data[i] for i in order[start : start + config.batch_size]]
            grad_w = np.zeros_like(weights)
            grad_b = 0.0
            for x, y in batch:
                err = sigmoid_one(reference_score(weights, bias, x)) - float(y)
                for i, w in x.entries:
                    grad_w[i] += err * w
                grad_b += err
            grad_w /= len(batch)
            grad_b /= len(batch)
            if config.l2_penalty:
                grad_w += config.l2_penalty * weights
            weights -= config.learning_rate * grad_w
            bias -= config.learning_rate * grad_b
        total = 0.0
        for x, y in data:
            z = reference_score(weights, bias, x)
            total += softplus_one(z) - float(y) * z
        losses.append(
            total / len(data) + 0.5 * config.l2_penalty * reference_squares(weights)
        )
    return weights, bias, losses


def reference_squares(weights) -> float:
    """w . w added one square at a time, left to right, from 0.0. A loop,
    not sum(), which adds floats with compensation on CPython >= 3.12."""
    total = 0.0
    for w in weights.tolist():
        total += w * w
    return total


def tfidf_corpus(seed, n_per_class=30, oov_rows=4):
    """TF-IDF rows of a seeded synth corpus, plus all-OOV (zero) rows."""
    split = synth_corpus(seed, n_per_class)
    texts = [preprocess(ex.text) for ex in split]
    model = vectorizer.fit(texts, vectorizer.TfIdfConfig(ngram_max=2))
    data = [
        (vectorizer.transform(model, text), label)
        for text, label in zip(texts, (ex.label for ex in split))
    ]
    zero = vectorizer.transform(model, "zzz-never-seen qqq-unknown")
    assert zero.entries == ()
    for k in range(oov_rows):
        data.insert(7 * k + 3, (zero, Label(k % 2)))
    return data


class TestKernelsMatchPerEntryReference:
    @pytest.mark.parametrize(
        "config, train_seed",
        [
            (TrainConfigLR(epochs=6), 3),
            (TrainConfigLR(epochs=4, batch_size=7), 11),
            (TrainConfigLR(epochs=3, batch_size=5, l2_penalty=0.0), 2),
            (TrainConfigLR(epochs=3, batch_size=9, learning_rate=0.5), 0),
            (TrainConfigLR(epochs=2, batch_size=1000, l2_penalty=0.05), 4),
        ],
    )
    @pytest.mark.parametrize("seed", [5, 6])
    def test_train_lr_is_bit_identical(self, config, train_seed, seed):
        data = tfidf_corpus(seed)
        assert len(data) % 7 and len(data) % 5 and len(data) % 9
        model, report = train_lr(*split(data), config, seed=train_seed)
        weights, bias, losses = reference_train_lr(data, config, train_seed)
        assert np.array_equal(model.weights, weights)
        assert model.bias == bias
        assert report.epoch_train_losses == losses

    def test_random_instances_are_bit_identical(self):
        rng = Random(20240101)
        for _ in range(20):
            _, data = random_instance(rng, max_dim=12, max_n=40)
            batch_size, train_seed = rng.randint(1, 9), rng.randint(0, 99)
            config = TrainConfigLR(
                epochs=3, batch_size=batch_size, l2_penalty=rng.choice([0.0, 1e-3])
            )
            model, report = train_lr(*split(data), config, seed=train_seed)
            weights, bias, losses = reference_train_lr(data, config, train_seed)
            assert np.array_equal(model.weights, weights)
            assert model.bias == bias
            assert report.epoch_train_losses == losses

    def test_public_functions_match_reference(self):
        data = tfidf_corpus(8)
        model, _ = train_lr(*split(data), TrainConfigLR(epochs=2), seed=1)
        for x, _ in data:
            expected = sigmoid_one(reference_score(model.weights, model.bias, x))
            assert predict_proba(model, x) == expected
        weights, bias, losses = reference_train_lr(
            data[:13], TrainConfigLR(epochs=1, batch_size=13), seed=0, shuffle=False
        )
        grad_w, grad_b = batch_gradient(np.zeros_like(weights), 0.0, data[:13], 1e-4)
        assert np.array_equal(-0.1 * grad_w, weights)
        assert -0.1 * grad_b == bias
        assert dataset_loss(weights, bias, data[:13], 1e-4) == losses[0]

    @pytest.mark.parametrize("seed", [8, 9])
    def test_batched_probabilities_equal_per_row(self, seed):
        data = tfidf_corpus(seed)
        model, _ = train_lr(*split(data), TrainConfigLR(epochs=2), seed=seed)
        vectors = [x for x, _ in data]
        probs = predict_probas(model, Rows.pack(vectors, model.dimension))
        assert probs == [predict_proba(model, x) for x in vectors]
        assert probs == [
            sigmoid_one(reference_score(model.weights, model.bias, x)) for x in vectors
        ]
        assert predict_probas(model, Rows.pack([], model.dimension)) == []

    def test_l2_term_adds_left_to_right(self):
        # Many weights over a wide range: a BLAS dot product, which keeps
        # several partial sums, rounds this differently.
        weights = np.random.default_rng(7).standard_normal(11_146) * np.logspace(-3, 3, 11_146)
        zero = SparseVector(entries=(), dimension=weights.size)
        loss = dataset_loss(weights, 0.0, [(zero, Label(0))], 1.0)
        assert loss == math.log(2.0) + 0.5 * reference_squares(weights)

    def test_scores_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the sequential sum is 0.0; a
        # compensated sum (math.fsum, or sum() on CPython >= 3.12) gives 1.0.
        x = SparseVector(entries=((0, 1e16), (1, 1.0), (2, -1e16)), dimension=3)
        assert math.fsum(w for _, w in x.entries) == 1.0
        model = LinearModel(weights=np.ones(3), bias=0.0)
        assert predict_proba(model, x) == 0.5
        assert dataset_loss(model.weights, 0.0, [(x, Label(0))], 0.0) == math.log(2.0)
        grad_w, grad_b = batch_gradient(model.weights, 0.0, [(x, Label(0))], 0.0)
        assert grad_b == 0.5
        assert np.array_equal(grad_w, [5e15, 0.5, -5e15])
