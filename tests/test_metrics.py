"""Confusion-matrix and macro-F1 arithmetic against an independent scorer.

The two confusion-matrix fixtures are published reference runs for Tamil and
Malayalam abusive-comment classification; the Malayalam counts reproduce
their run's reported 0.6279 macro-F1 exactly, so they anchor the metric
definitions used throughout.
"""
import math
from random import Random

import pytest

from abusivetext.corpus import Label
from abusivetext.errors import EmptyInput, LengthMismatch
from abusivetext.metrics import (
    ClassReport,
    ConfusionMatrix,
    class_report,
    confusion,
    decided_macro_f1,
    macro_f1,
    per_class_prf,
)

MALAYALAM_CM = ConfusionMatrix(tp=202, fn=130, fp=104, tn=193)
TAMIL_CM = ConfusionMatrix(tp=215, fn=98, fp=78, tn=207)


def brute_force_macro_f1(gold: list[int], pred: list[int]) -> float:
    """First-principles scorer: per-class P/R/F1 from raw label lists."""
    f1s = []
    for positive in (1, 0):
        tp = sum(1 for g, p in zip(gold, pred) if g == positive and p == positive)
        fp = sum(1 for g, p in zip(gold, pred) if g != positive and p == positive)
        fn = sum(1 for g, p in zip(gold, pred) if g == positive and p != positive)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return sum(f1s) / 2.0


def labels_from_matrix(cm: ConfusionMatrix) -> tuple[list[Label], list[Label]]:
    """Expand a confusion matrix back into gold/pred label lists."""
    gold = [Label.ABUSIVE] * (cm.tp + cm.fn) + [Label.NON_ABUSIVE] * (cm.fp + cm.tn)
    pred = (
        [Label.ABUSIVE] * cm.tp
        + [Label.NON_ABUSIVE] * cm.fn
        + [Label.ABUSIVE] * cm.fp
        + [Label.NON_ABUSIVE] * cm.tn
    )
    return gold, pred


class TestConfusion:
    def test_perfect_agreement_has_no_errors(self):
        gold = [Label.ABUSIVE, Label.NON_ABUSIVE, Label.ABUSIVE, Label.ABUSIVE]
        cm = confusion(gold, list(gold))
        assert cm.fp == 0 and cm.fn == 0
        assert cm.tp == 3 and cm.tn == 1

    def test_hand_counted_four_items(self):
        gold = [Label(1), Label(1), Label(0), Label(0)]
        pred = [Label(1), Label(0), Label(1), Label(0)]
        assert confusion(gold, pred) == ConfusionMatrix(tp=1, fn=1, fp=1, tn=1)

    def test_malayalam_fixture_counts(self):
        gold, pred = labels_from_matrix(MALAYALAM_CM)
        assert confusion(gold, pred) == MALAYALAM_CM

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([Label(1)], [Label(1), Label(0)])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


class TestPerClassPrf:
    def test_perfect_matrix(self):
        prf = per_class_prf(ConfusionMatrix(tp=1, fn=0, fp=0, tn=1))
        for label in (Label.ABUSIVE, Label.NON_ABUSIVE):
            assert prf[label].precision == prf[label].recall == prf[label].f1 == 1.0

    def test_degenerate_class_uses_zero_convention(self):
        prf = per_class_prf(ConfusionMatrix(tp=0, fn=5, fp=0, tn=5))
        assert prf[Label.ABUSIVE] .precision == 0.0  # 0/0 -> 0
        assert prf[Label.ABUSIVE].recall == 0.0
        assert prf[Label.ABUSIVE].f1 == 0.0

    def test_malayalam_fixture_per_class_f1(self):
        # Hand arithmetic: abusive p=202/306, r=202/332 -> f1 0.633229;
        # non-abusive p=193/323, r=193/297 -> f1 0.622581.
        prf = per_class_prf(MALAYALAM_CM)
        assert prf[Label.ABUSIVE].f1 == pytest.approx(0.6332, abs=5e-4)
        assert prf[Label.NON_ABUSIVE].f1 == pytest.approx(0.6226, abs=5e-4)

    def test_malayalam_fixture_precision_and_recall(self):
        # F1 is symmetric in P and R, so only these pin which count is which.
        prf = per_class_prf(MALAYALAM_CM)
        assert (prf[Label.ABUSIVE].precision, prf[Label.ABUSIVE].recall) == (202 / 306, 202 / 332)
        assert (prf[Label.NON_ABUSIVE].precision, prf[Label.NON_ABUSIVE].recall) == (
            193 / 323, 193 / 297,
        )


class TestMacroF1:
    def test_malayalam_fixture_reproduces_reported_score(self):
        assert macro_f1(MALAYALAM_CM) == pytest.approx(0.6279, abs=5e-4)

    def test_perfect_matrix_scores_one(self):
        assert macro_f1(ConfusionMatrix(tp=10, fn=0, fp=0, tn=7)) == 1.0

    def test_tamil_fixture_counts_are_the_source_of_truth(self):
        # These counts imply 0.7056; the 0.7293 sometimes quoted alongside
        # this run is not derivable from them. The counts win here.
        score = macro_f1(TAMIL_CM)
        gold, pred = labels_from_matrix(TAMIL_CM)
        assert score == pytest.approx(
            brute_force_macro_f1([int(g) for g in gold], [int(p) for p in pred]),
            abs=5e-4,
        )
        assert score == pytest.approx(0.7056, abs=5e-4)
        assert abs(score - 0.7293) > 0.02

    def test_matches_brute_force_on_random_pairs(self):
        rng = Random(20260808)
        for _ in range(1000):
            n = rng.randint(1, 50)
            gold = [rng.randint(0, 1) for _ in range(n)]
            pred = [rng.randint(0, 1) for _ in range(n)]
            ours = macro_f1(
                confusion([Label(g) for g in gold], [Label(p) for p in pred])
            )
            assert math.isclose(
                ours, brute_force_macro_f1(gold, pred), abs_tol=1e-12
            )

    def test_label_swap_symmetry(self):
        rng = Random(99)
        for _ in range(200):
            n = rng.randint(1, 40)
            gold = [Label(rng.randint(0, 1)) for _ in range(n)]
            pred = [Label(rng.randint(0, 1)) for _ in range(n)]
            cm = confusion(gold, pred)
            flipped = confusion(
                [Label(1 - g) for g in gold], [Label(1 - p) for p in pred]
            )
            assert (flipped.tp, flipped.tn) == (cm.tn, cm.tp)
            assert (flipped.fp, flipped.fn) == (cm.fn, cm.fp)
            assert macro_f1(flipped) == pytest.approx(macro_f1(cm), abs=1e-12)

    def test_diagonal_matrix_equals_accuracy(self):
        cm = ConfusionMatrix(tp=13, fn=0, fp=0, tn=29)
        report = class_report(cm)
        assert report.macro_f1 == report.accuracy == 1.0

    def test_bounds(self):
        rng = Random(7)
        for _ in range(200):
            cm = ConfusionMatrix(
                tp=rng.randint(0, 20), fn=rng.randint(0, 20),
                fp=rng.randint(0, 20), tn=rng.randint(0, 20),
            )
            if cm.total == 0:
                continue
            assert 0.0 <= macro_f1(cm) <= 1.0


class TestClassReport:
    def test_report_aggregates(self):
        report = class_report(MALAYALAM_CM)
        assert isinstance(report, ClassReport)
        assert report.macro_f1 == pytest.approx(macro_f1(MALAYALAM_CM))
        assert report.accuracy == pytest.approx((202 + 193) / 629)

    def test_decided_macro_f1_scores_the_decided_labels(self):
        gold = [Label.ABUSIVE, Label.ABUSIVE, Label.NON_ABUSIVE, Label.NON_ABUSIVE]
        probs = [0.5, 0.2, 0.7, 0.1]  # 0.5 ties to Abusive
        pred = [Label.ABUSIVE, Label.NON_ABUSIVE, Label.ABUSIVE, Label.NON_ABUSIVE]
        assert decided_macro_f1(gold, probs) == macro_f1(confusion(gold, pred))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)
