"""Accuracy metric, confusion counts and report rendering.

The benchmark metric is plain accuracy (correct / total).  Macro-F1 is
computed as an auxiliary diagnostic only and every rendering marks it as
such; nothing in this package selects models by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LABELS, ModelParams, chunks, forward


@dataclass
class EvalReport:
    """Predictions scored against gold labels, every score read from confusion."""

    confusion: np.ndarray  # rows gold, columns predicted

    @property
    def correct(self) -> int:
        return int(np.trace(self.confusion))

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        return self.correct / self.total

    @property
    def macro_f1(self) -> float:
        """Unweighted mean of per-class F1 (auxiliary, not the benchmark
        metric); a class with no gold and no predicted occurrences gives 0."""
        # such a class has tp 0, so any nonzero denominator gives it 0
        denom = self.confusion.sum(axis=0) + self.confusion.sum(axis=1)
        return float(np.mean(2.0 * np.diag(self.confusion) / np.maximum(denom, 1)))


def predict_all(params: ModelParams, instances) -> np.ndarray:
    """Predicted label index per instance (dropout off), run in the
    length-sorted chunks of model.chunks by a forward pass that keeps no
    trace."""
    out = np.zeros(len(instances), dtype=np.int64)
    for pos, ctx_idx, tgt_idx, layout in chunks(instances, keep_trace=False):
        probs = forward(params, ctx_idx, tgt_idx, keep_trace=False, **layout)[0]
        out[pos] = np.argmax(probs, axis=1)
    return out


def accuracy(preds, golds) -> EvalReport:
    """Score a prediction sequence against gold labels.

    Both sequences hold class indices; they must be equally long and
    non-empty.  The confusion matrix has gold labels on rows and
    predictions on columns.
    """
    preds, golds = np.asarray(preds), np.asarray(golds)
    if not len(golds):
        raise ValueError("accuracy over an empty label sequence")
    if len(preds) != len(golds):
        raise ValueError(
            f"prediction/gold length mismatch: {len(preds)} vs {len(golds)}"
        )
    n = len(LABELS)
    bad = np.flatnonzero((preds < 0) | (preds >= n) | (golds < 0) | (golds >= n))
    if len(bad):
        k = bad[0]
        raise ValueError(f"label index out of range: pred={preds[k]} gold={golds[k]}")
    return EvalReport(np.bincount(golds * n + preds, minlength=n * n).reshape(n, n))


def evaluate_model(params: ModelParams, instances) -> EvalReport:
    """Predict every instance and score against the stored gold labels; an
    empty list raises, as accuracy does."""
    preds = predict_all(params, instances)
    return accuracy(preds, [inst.label for inst in instances])


def render_report(report: EvalReport, variant: str, dataset: str) -> str:
    """Human-readable accuracy of `variant` on `dataset`, plus the confusion
    matrix and per-class recall."""
    lines = [
        f"{variant} on {dataset}: accuracy {report.correct}/{report.total}"
        f" = {report.accuracy:.4f}   macro-F1 {report.macro_f1:.4f} (auxiliary)",
        "",
    ]
    width = max(len(name) for name in LABELS)
    header = " " * (width + 7) + "  ".join(f"{name:>{width}}" for name in LABELS)
    lines.append(header + "   recall")
    for i, name in enumerate(LABELS):
        row = "  ".join(f"{report.confusion[i, j]:>{width}}" for j in range(len(LABELS)))
        gold_total = report.confusion[i].sum()
        recall = report.confusion[i, i] / gold_total if gold_total else float("nan")
        lines.append(f"gold {name:>{width}}  {row}   {recall:.4f}")
    lines.append("(rows gold, columns predicted)")
    return "\n".join(lines)


def report_tsv(report: EvalReport, variant: str, dataset: str) -> str:
    """Machine-readable tab-separated dump of the same report."""
    return (
        "variant\tdataset\tcorrect\ttotal\taccuracy\tmacro_f1_aux\n"
        f"{variant}\t{dataset}\t{report.correct}\t{report.total}"
        f"\t{report.accuracy:.6f}\t{report.macro_f1:.6f}\n"
    )
