import numpy as np
import pytest

from ian.evaluate import (
    accuracy,
    evaluate_model,
    predict_all,
    render_report,
    reports_tsv,
)
from ian.model import ModelParams
from ian.numerics import Rng
from synth import synthetic_separable


def majority_fixed(priors):
    vocab, instances = synthetic_separable()
    params = ModelParams(Rng(0), vocab, variant="majority", embed_dim=300, hidden_dim=300)
    params.class_priors[:] = priors
    return params, instances


def test_predict_all_constant_for_majority():
    params, instances = majority_fixed([0.2, 0.7, 0.1])
    preds = predict_all(params, instances)
    assert np.all(preds == 1)


def test_accuracy_all_correct():
    report = accuracy([0, 1, 2, 1], [0, 1, 2, 1])
    assert report.accuracy == 1.0
    assert report.correct == 4 and report.total == 4


def test_accuracy_hand_counted_quarter_wrong():
    report = accuracy((0, 1, 2, 0), (0, 1, 1, 0))
    assert report.accuracy == pytest.approx(0.75)
    assert report.correct == 3 and report.total == 4
    # rows gold, columns predicted
    assert np.array_equal(report.confusion, [[2, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert report.confusion.sum() == report.total


def test_accuracy_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([0, 1], [0])
    with pytest.raises(ValueError):
        accuracy([0, 5], [0, 1])


def test_majority_accuracy_is_max_gold_frequency_exactly():
    # constant predictor scored on counts like the laptop test split
    golds = [0] * 341 + [1] * 169 + [2] * 128
    preds = [0] * len(golds)
    report = accuracy(preds, golds)
    assert report.accuracy == 341 / 638
    assert round(report.accuracy, 3) == 0.534

    # property over random gold mixes: majority accuracy == top class share
    rng = Rng(11)
    for _ in range(20):
        golds = [int(g) for g in rng.integers(0, 3, 37)]
        counts = [golds.count(c) for c in range(3)]
        top = int(np.argmax(counts))
        report = accuracy([top] * len(golds), golds)
        assert report.accuracy == counts[top] / len(golds)


def test_joint_permutation_leaves_report_unchanged():
    rng = Rng(5)
    preds = [int(p) for p in rng.integers(0, 3, 40)]
    golds = [int(g) for g in rng.integers(0, 3, 40)]
    base = accuracy(preds, golds)
    order = rng.permutation(40)
    shuffled = accuracy([preds[i] for i in order], [golds[i] for i in order])
    assert shuffled.accuracy == base.accuracy
    assert np.array_equal(shuffled.confusion, base.confusion)
    assert shuffled.macro_f1 == base.macro_f1


def test_macro_f1_hand_case():
    # gold (0,0,1,2), pred (0,1,1,1):
    # class0: tp=1 gold=2 pred=1 -> f1 = 2/3
    # class1: tp=1 gold=1 pred=3 -> f1 = 2/4
    # class2: tp=0 gold=1 pred=0 -> f1 = 0
    report = accuracy([0, 1, 1, 1], [0, 0, 1, 2])
    assert report.macro_f1 == pytest.approx((2 / 3 + 0.5 + 0.0) / 3)


def test_evaluate_model_matches_hand_count():
    # labels cycle 0,1,2 over 20 instances: 7 zeros, 7 ones, 6 twos
    params, instances = majority_fixed([1.0, 0.0, 0.0])
    report = evaluate_model(params, instances, dataset="synthetic")
    assert report.accuracy == pytest.approx(7 / 20)
    assert report.variant == "majority"
    assert report.dataset == "synthetic"
    assert np.array_equal(report.confusion[:, 0], [7, 7, 6])

    params.class_priors[:] = [0.0, 0.0, 1.0]
    assert evaluate_model(params, instances).accuracy == pytest.approx(6 / 20)
    with pytest.raises(ValueError):
        evaluate_model(params, [])


def test_render_report_mentions_counts_and_labels():
    report = accuracy([0, 0, 1], [0, 1, 1], variant="majority", dataset="toy")
    text = render_report(report)
    assert "2/3" in text
    assert "majority" in text and "toy" in text
    assert "auxiliary" in text
    for name in ("positive", "neutral", "negative"):
        assert name in text


def test_reports_tsv_round_trips_fields():
    report = accuracy([0, 1, 2], [0, 1, 1], variant="ian", dataset="toy")
    text = reports_tsv([report])
    lines = text.strip().splitlines()
    assert lines[0].split("\t")[:2] == ["variant", "dataset"]
    fields = lines[1].split("\t")
    assert fields[0] == "ian" and fields[1] == "toy"
    assert fields[2] == "2" and fields[3] == "3"
    assert float(fields[4]) == pytest.approx(2 / 3)
