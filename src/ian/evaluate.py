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
    """Outcome of scoring one model variant on one dataset."""

    variant: str
    dataset: str
    correct: int
    total: int
    accuracy: float
    confusion: np.ndarray  # rows gold, columns predicted
    macro_f1: float  # auxiliary diagnostic, not the benchmark metric


def predict_all(params: ModelParams, instances) -> np.ndarray:
    """Predicted label index per instance (dropout off), run in the
    length-sorted chunks of model.chunks by a forward pass that keeps no
    trace."""
    out = np.zeros(len(instances), dtype=np.int64)
    for pos, ctx_idx, tgt_idx, layout in chunks(instances, keep_trace=False):
        probs = forward(params, ctx_idx, tgt_idx, keep_trace=False, **layout)[0]
        out[pos] = np.argmax(probs, axis=1)
    return out


def _macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1; a class with no gold and no predicted
    occurrences contributes 0."""
    # such a class has tp 0, so any nonzero denominator gives it 0
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)
    return float(np.mean(2.0 * np.diag(confusion) / np.maximum(denom, 1)))


def accuracy(preds, golds, variant: str = "", dataset: str = "") -> EvalReport:
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
    confusion = np.bincount(golds * n + preds, minlength=n * n).reshape(n, n)
    correct = int(np.trace(confusion))
    total = len(golds)
    return EvalReport(
        variant=variant,
        dataset=dataset,
        correct=correct,
        total=total,
        accuracy=correct / total,
        confusion=confusion,
        macro_f1=_macro_f1(confusion),
    )


def evaluate_model(params: ModelParams, instances, dataset: str = "") -> EvalReport:
    """Predict every instance and score against the stored gold labels."""
    if not instances:
        raise ValueError("evaluate_model over an empty instance list")
    preds = predict_all(params, instances)
    golds = [inst.label for inst in instances]
    return accuracy(preds, golds, variant=params.variant, dataset=dataset)


def render_report(report: EvalReport) -> str:
    """Human-readable accuracy plus the confusion matrix and per-class recall."""
    head = f"{report.variant or 'model'}"
    if report.dataset:
        head += f" on {report.dataset}"
    lines = [
        f"{head}: accuracy {report.correct}/{report.total}"
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


def report_tsv(report: EvalReport) -> str:
    """Machine-readable tab-separated dump of the same report."""
    return (
        "variant\tdataset\tcorrect\ttotal\taccuracy\tmacro_f1_aux\n"
        f"{report.variant}\t{report.dataset}\t{report.correct}\t{report.total}"
        f"\t{report.accuracy:.6f}\t{report.macro_f1:.6f}\n"
    )
