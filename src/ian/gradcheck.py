"""Finite-difference verification of the hand-derived backward pass.

Compares every analytic parameter gradient of training.loss_and_grads,
the one batch-loss function, with central differences of the same function
run without a GradSet (forward only), grouped by component, and reports the
worst relative error per group with the coordinate where it occurs.
"""

from __future__ import annotations

import numpy as np

from .data import Instance
from .embeddings import PAD_INDEX, Vocabulary, random_embeddings
from .model import LABELS, ModelParams
from .numerics import Rng
from .training import GradSet, loss_and_grads

# the checked model's dtype: at float64, finite-difference noise swamps tiny biases
PRECISION = np.longdouble


def group_of(name: str) -> str:
    return "classifier" if name in ("W_l", "b_l") else name.split(".", 1)[0]


def numeric_gradient(objective, arr: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of a scalar objective() w.r.t. arr, in place."""
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        old = arr[idx]
        arr[idx] = old + eps
        hi = objective()
        arr[idx] = old - eps
        lo = objective()
        arr[idx] = old
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """|a - n| / max(1e-8, |a| + |n|) per coordinate."""
    return np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))


def gradient_check(params: ModelParams, cases, l2: float, eps: float, chunk_tokens: int):
    """Analytic vs numeric gradients of the batch loss over cases, per group.

    Returns {group: (max rel err, parameter name, index, analytic,
    numeric)}, the last four naming the worst coordinate; the error is that
    of its two values, rounded to float64. chunk_tokens is passed to
    loss_and_grads, so a small budget checks the loss summed over chunks.
    """
    grads = GradSet(params)
    loss_and_grads(params, cases, l2=l2, grads=grads, chunk_tokens=chunk_tokens)

    def objective():
        return loss_and_grads(params, cases, l2=l2, chunk_tokens=chunk_tokens)

    found: dict[str, tuple] = {}
    for name, arr in params.named_arrays():
        numeric = numeric_gradient(objective, arr, eps).astype(np.float64)
        if name == "embeddings":
            # the pad row is fixed at zero and never trained, though
            # td_lstm reads a case's trailing pads and so moves with it
            numeric[PAD_INDEX] = 0.0
        analytic = grads[name].astype(np.float64)
        rel = relative_error(analytic, numeric)
        # argmax takes the first NaN, so a NaN error is the array's worst
        idx = np.unravel_index(np.argmax(rel), rel.shape)
        err = float(rel[idx])
        group = group_of(name)
        worst = found.get(group, (-1.0,))[0]
        # a NaN error replaces any error of its group and is never replaced
        if not np.isnan(worst) and not err < worst:
            found[group] = (err, name, idx, float(analytic[idx]), float(numeric[idx]))
    return found


def check_tiny_model(seed: int, embed_dim: int, hidden_dim: int, *, n_ctx: int, n_tgt: int,
                     variant: str, tie_attention: bool, l2: float, eps: float):
    """Build a small random model and a batch, then run gradient_check.

    The batch holds three cases of n_ctx, n_ctx + 1 and n_ctx + 2 context
    tokens; the middle one ends in a padding token, on the context and on
    the target. It runs as two chunks, so the check covers padding masks,
    the loss summed over chunks and the once-per-batch L2 term. Each
    case's target words are a slice of its context, so every variant,
    span included, is exercised. Returns gradient_check's mapping. The table
    is drawn first, as ModelParams draws it, then widened to PRECISION.
    """
    rng = Rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    table = random_embeddings(rng, vocab, embed_dim).astype(PRECISION)
    params = ModelParams(rng, vocab, variant=variant, embed_dim=embed_dim,
                         hidden_dim=hidden_dim, tie_attention=tie_attention, embeddings=table)
    cases = []
    for extra in range(3):
        # the middle case is n_ctx tokens plus a trailing pad
        ctx_idx = rng.integers(1, len(vocab), n_ctx + 2 * (extra == 2))
        start = int(rng.integers(0, n_ctx - n_tgt + 1))
        tgt_idx = ctx_idx[start:start + n_tgt]
        if extra == 1:
            ctx_idx = np.append(ctx_idx, PAD_INDEX)
            tgt_idx = np.append(tgt_idx, PAD_INDEX)
        label = int(rng.integers(0, len(LABELS)))
        cases.append(Instance(context_tokens=(), target_tokens=(),
                              context_ids=tuple(ctx_idx), target_ids=tuple(tgt_idx),
                              span=(start, start + n_tgt), label=label, target_text=""))
    # the two shorter cases fill one chunk; the longest needs a second
    return gradient_check(params, cases, l2, eps, chunk_tokens=2 * (n_ctx + 1))
