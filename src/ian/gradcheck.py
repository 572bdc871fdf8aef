"""Complex-step verification of the hand-derived backward pass.

Compares every analytic parameter gradient of training.loss_and_grads, the
one batch-loss function, on the float64 model with the derivative
Im f(x + ih) / h of the same function run forward only on a complex128 twin,
grouped by component, and reports the worst relative error per group with
the coordinate where it occurs.
"""

from __future__ import annotations

import numpy as np

from .data import Instance
from .embeddings import PAD_INDEX, Vocabulary
from .model import LABELS, ModelParams
from .numerics import Rng
from .training import GradSet, loss_and_grads

# h: nothing is subtracted, so any h from 1e-20 to 1e-100 gives the same derivatives
STEP = 1e-30
# the one probe check_tiny_model runs: context and target tokens of its shortest
# case, an L2 penalty so that its gradient is checked too, and the largest
# relative error a group passes with
CTX_LEN, TGT_LEN, L2, TOLERANCE = 4, 2, 0.01, 1e-4
# the (embed, hidden) dims each trainable layout is checked at: the second
# pair differs, so a place that reads one dim for the other cannot pass
DIMS = ((3, 3), (8, 5))
# what the drawn model's arrays are multiplied by: at the init range the
# attention biases' gradients read 1e-21 to 1e-17, below relative_error's
# floor, where a wrong one passes (README.md has the scale sweep)
SCALE = 20.0


def group_of(name: str) -> str:
    return "classifier" if name in ("W_l", "b_l") else name.split(".", 1)[0]


def numeric_gradient(objective, arr: np.ndarray) -> np.ndarray:
    """Complex-step derivative of an analytic objective() w.r.t. the complex
    array arr, one objective() per coordinate, perturbed in place."""
    grad = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        old = arr[idx]
        arr[idx] = old + STEP * 1j
        grad[idx] = objective().imag / STEP
        arr[idx] = old
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """|a - n| / max(1e-8, |a| + |n|) per coordinate."""
    return np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))


def gradient_check(params: ModelParams, cases, l2: float, chunk_rows: int):
    """Analytic vs complex-step gradients of the batch loss over cases, per group.

    Returns {group: (max rel err, parameter name, index, analytic,
    numeric)} in named_arrays() order, the last four naming the worst
    coordinate. chunk_rows is passed to loss_and_grads, so a small
    budget checks the loss summed over chunks.
    """
    grads = GradSet(params)
    loss_and_grads(params, cases, l2=l2, grads=grads, chunk_rows=chunk_rows)
    # the model's arrays, values and tie in complex128
    twin = ModelParams(None, params.vocab, **params.layout(),
                       embeddings=params.embeddings.astype(np.complex128))
    for (_, dst), (_, src) in zip(twin.named_arrays(), params.named_arrays()):
        dst[...] = src

    def objective():
        return loss_and_grads(twin, cases, l2=l2, chunk_rows=chunk_rows)

    found: dict[str, tuple] = {}
    for name, arr in twin.named_arrays():
        numeric = numeric_gradient(objective, arr)
        if name == "embeddings":
            # the pad row is fixed at zero and never trained, though
            # td_lstm reads a case's trailing pads and so moves with it
            numeric[PAD_INDEX] = 0.0
        analytic = grads[name]
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


def check_tiny_model(seed: int, embed_dim: int, hidden_dim: int, *, variant: str,
                     tie_attention: bool):
    """Build a small random model of one trainable layout, its arrays scaled
    by SCALE, and a batch, then run gradient_check. `ian gradcheck` calls it
    for every layout of model.TRAINABLE at every DIMS pair.

    The batch holds three cases of CTX_LEN, CTX_LEN + 1 and CTX_LEN + 2
    context tokens with TGT_LEN-token targets; the middle one ends in a
    padding token, on the context and on the target. It runs as two
    chunks, so the check covers padding masks, the loss summed over chunks
    and the once-per-batch L2 term. Each case's target words are a slice
    of its context, so every variant, span included, is exercised.
    Returns gradient_check's mapping.
    """
    rng = Rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    params = ModelParams(rng, vocab, variant=variant, embed_dim=embed_dim,
                         hidden_dim=hidden_dim, tie_attention=tie_attention)
    for _, arr in params.named_arrays():
        arr *= SCALE
    cases = []
    for extra in range(3):
        # the middle case is CTX_LEN tokens plus a trailing pad
        ctx_idx = rng.integers(1, len(vocab), CTX_LEN + 2 * (extra == 2))
        start = int(rng.integers(0, CTX_LEN - TGT_LEN + 1))
        tgt_idx = ctx_idx[start:start + TGT_LEN]
        if extra == 1:
            ctx_idx = np.append(ctx_idx, PAD_INDEX)
            tgt_idx = np.append(tgt_idx, PAD_INDEX)
        label = int(rng.integers(0, len(LABELS)))
        cases.append(Instance(context_tokens=(), target_tokens=(),
                              context_ids=tuple(ctx_idx), target_ids=tuple(tgt_idx),
                              span=(start, start + TGT_LEN), label=label, target_text=""))
    # the two shorter cases' rows fill one chunk; the longest needs a second
    return gradient_check(params, cases, L2, chunk_rows=2 * (CTX_LEN + TGT_LEN + 3))
