import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _loop_score import loop_accuracy, loop_macro_f1
from ian.evaluate import (
    EvalReport,
    accuracy,
    evaluate_model,
    predict_all,
    render_report,
    report_tsv,
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


# a nonempty subset of the three classes, which the labels of one side draw from
CLASSES = st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)


@st.composite
def label_pairs(draw):
    """(preds, golds) of one length in 1..50, each side drawing from its own
    class subset, so a class can be absent from gold, from the predictions
    or from both."""
    n = draw(st.integers(1, 50))
    preds = draw(st.lists(st.sampled_from(draw(CLASSES)), min_size=n, max_size=n))
    golds = draw(st.lists(st.sampled_from(draw(CLASSES)), min_size=n, max_size=n))
    return preds, golds


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label_pairs())
@example(([0], [0]))  # two classes absent from both
@example(([1, 1], [0, 0]))  # one absent from each side, one from both
@example(([0, 1, 2], [2, 1, 0]))
def test_accuracy_and_macro_f1_equal_the_loops_they_replace(pair):
    preds, golds = pair
    report = accuracy(np.array(preds), golds)
    confusion, correct, total = loop_accuracy(preds, golds)
    assert np.array_equal(report.confusion, confusion)
    assert report.confusion.dtype == confusion.dtype
    assert (report.correct, report.total) == (correct, total)
    assert report.accuracy == correct / total
    assert report.macro_f1 == loop_macro_f1(confusion)


@pytest.mark.parametrize("preds, golds, message", [
    ([], [], "accuracy over an empty label sequence"),
    ([0], [], "accuracy over an empty label sequence"),
    ([0, 1], [0], "prediction/gold length mismatch: 2 vs 1"),
    ([0, 3, -1], [0, 1, 2], "label index out of range: pred=3 gold=1"),
    ([1, 0, 0], [1, -1, 7], "label index out of range: pred=0 gold=-1"),
    ([2, 2, 5], [1, 2, 0], "label index out of range: pred=5 gold=0"),
    ([0, -1], [2, 1], "label index out of range: pred=-1 gold=1"),
    ([0, 0], [2, 3], "label index out of range: pred=0 gold=3"),
])
def test_accuracy_errors_equal_the_loops_they_replace(preds, golds, message):
    for score in (accuracy, loop_accuracy):
        with pytest.raises(ValueError) as exc:
            score(preds, golds)
        assert str(exc.value) == message


def test_evaluate_model_matches_hand_count():
    # labels cycle 0,1,2 over 20 instances: 7 zeros, 7 ones, 6 twos
    params, instances = majority_fixed([1.0, 0.0, 0.0])
    report = evaluate_model(params, instances)
    assert report.accuracy == pytest.approx(7 / 20)
    assert np.array_equal(report.confusion[:, 0], [7, 7, 6])

    params.class_priors[:] = [0.0, 0.0, 1.0]
    assert evaluate_model(params, instances).accuracy == pytest.approx(6 / 20)
    with pytest.raises(ValueError, match="accuracy over an empty label sequence"):
        evaluate_model(params, [])


def test_render_report_mentions_counts_and_labels():
    report = accuracy([0, 0, 1], [0, 1, 1])
    text = render_report(report, "majority", "toy")
    assert "2/3" in text
    assert text.startswith("majority on toy: accuracy 2/3 = 0.6667")
    assert "auxiliary" in text
    for name in ("positive", "neutral", "negative"):
        assert name in text


def test_render_report_prints_recall_per_gold_row():
    # no neutral gold instance: its recall is undefined and prints nan
    confusion = np.array([[2, 1, 0], [0, 0, 0], [1, 0, 3]])
    report = EvalReport(confusion)
    head, *lines = render_report(report, "ian", "toy").splitlines()
    # every count and score is read from the one matrix
    assert head == (f"ian on toy: accuracy 5/7 = {5 / 7:.4f}   "
                    f"macro-F1 {loop_macro_f1(confusion):.4f} (auxiliary)")
    rows = [line.split() for line in lines if line.startswith("gold ")]
    assert rows == [["gold", "positive", "2", "1", "0", "0.6667"],
                    ["gold", "neutral", "0", "0", "0", "nan"],
                    ["gold", "negative", "1", "0", "3", "0.7500"]]


def test_reports_tsv_round_trips_fields():
    report = accuracy([0, 1, 2], [0, 1, 1])
    text = report_tsv(report, "ian", "toy")
    lines = text.strip().splitlines()
    assert lines[0].split("\t")[:2] == ["variant", "dataset"]
    fields = lines[1].split("\t")
    assert fields[0] == "ian" and fields[1] == "toy"
    assert fields[2] == "2" and fields[3] == "3"
    assert float(fields[4]) == pytest.approx(2 / 3)
