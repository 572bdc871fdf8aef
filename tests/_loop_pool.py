"""Position-loop pooling: the reference for the pooling matrices.

This is how the package pooled a side before every pool became one
(tokens, B) matrix: a masked mean per column that adds position k after
position k - 1, a last state read by index, and attention that scores and
sums each instance's rows one position at a time. It reads the states and
sides a traced forward pass keeps and recomputes everything else, so the
matrix pass and this reference pool the very same states.
"""

import numpy as np

from ian.embeddings import PAD_INDEX
from ian.lstm import packing
from ian.model import ROUTES, feature_sides
from ian.numerics import softmax_stable, tanh


def masked_mean(states, row_of, mask):
    """Mean per column of packed states (tokens, D) over the positions
    where mask (n, G) is True, reading row row_of[k, g] at position k of
    column g: (G, D)."""
    count = mask.sum(axis=0)
    if np.any(count == 0):
        raise ValueError("masked_mean over an empty selection")
    total = np.zeros((mask.shape[1], states.shape[1]))
    for rows, keep in zip(row_of, mask):
        total[keep] += states[rows[keep]]
    return total / count[:, None]


def attend(params, states, row_of, query, mask, gather):
    """Pool instance b under query[b], reading column gather[b] of row_of
    (n, G) where mask (n, G) is True: (pooled (B, H), weights (n, B))."""
    proj = query @ params.W_a.T
    rows = row_of[:, gather]
    raw = tanh(np.array([np.einsum("bh,bh->b", states[at], proj) for at in rows])
               + float(params.b_a))
    weights = softmax_stable(np.where(mask[:, gather], raw, -np.inf), axis=0)
    pooled = sum(w[:, None] * states[at] for w, at in zip(weights, rows))
    return pooled, weights


def loop_features(params, trace):
    """(classifier input (B, feature_dim), {side: attention weights (n,
    B)}) pooled position by position from trace["states"]."""
    states, row_of, masks, lasts, gathers = trace["states"], {}, {}, {}, {}
    for side, ids, lens, gather, last in trace["sides"]:
        row_of[side] = packing(ids, lens)["row_of"]
        masks[side] = (ids != PAD_INDEX) & (row_of[side] >= 0)
        lasts[side] = row_of[side][lens[gather] - 1 if last is None else last, gather]
        gathers[side] = gather
    pooled, weights = [], {}
    for side, pool in feature_sides(ROUTES[params.variant]):
        gather = gathers[side]
        if pool == "last":
            vec = states[side][lasts[side]]
        elif pool == "mean":
            vec = masked_mean(states[side], row_of[side], masks[side])[gather]
        else:
            query = masked_mean(states[pool], row_of[pool], masks[pool])[gathers[pool]]
            vec, weights[side] = attend(getattr(params, f"{side}_attn"), states[side],
                                        row_of[side], query, masks[side], gather)
        pooled.append(vec)
    return np.concatenate(pooled, axis=1), weights
