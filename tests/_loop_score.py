"""Per-pair and per-class loops: the reference for the numpy scoring.

This is how the package scored labels before the confusion matrix became
one bincount and macro-F1 one array expression: each (pred, gold) pair is
range-checked and counted in turn, and each class's F1 is taken on its own.
"""

import numpy as np

from ian.model import LABELS


def loop_accuracy(preds, golds):
    """(confusion, correct, total), raising what accuracy raises."""
    preds = list(preds)
    golds = list(golds)
    if not golds:
        raise ValueError("accuracy over an empty label sequence")
    if len(preds) != len(golds):
        raise ValueError(
            f"prediction/gold length mismatch: {len(preds)} vs {len(golds)}"
        )
    n = len(LABELS)
    confusion = np.zeros((n, n), dtype=np.int64)
    for pred, gold in zip(preds, golds):
        if not (0 <= gold < n) or not (0 <= pred < n):
            raise ValueError(f"label index out of range: pred={pred} gold={gold}")
        confusion[gold, pred] += 1
    return confusion, int(np.trace(confusion)), len(golds)


def loop_macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1; a class with no gold and no predicted
    occurrences contributes 0."""
    scores = []
    for i in range(confusion.shape[0]):
        tp = confusion[i, i]
        gold_total = confusion[i].sum()
        pred_total = confusion[:, i].sum()
        denom = gold_total + pred_total
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))
