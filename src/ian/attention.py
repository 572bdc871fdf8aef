"""Attention pooling of a hidden-state sequence against a query vector.

Each position gets a raw score tanh(h_k . (W q) + b); the scores pass
through a softmax restricted to unmasked positions, and the pooled output
is the weight-averaged hidden state. Masked positions receive weight
exactly zero, so padding never contributes.

Both passes run on a chunk's packed states: one row per real token of G
columns, states (tokens, H), with the (n, G) table of the packed row at
each (position, column) and a mask (n, G). Each of B instances has a
query (B, Q) and a gather (B,) naming the column it reads, so instances
that share a column (the aspect terms of one sentence) read its rows in
place, position by position, and no per-instance copy of them exists.
Backward writes one gradient per packed row, the instances that read a
row summed onto it. Forward sums over positions add position k after
position k - 1.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, softmax_stable, tanh, uniform_init


class AttentionParams:
    """One score matrix (hidden_dim x query_dim) and a scalar bias.

    The bias is kept as a 0-d array so every parameter in the model is an
    ndarray that can be updated in place.
    """

    def __init__(self, rng: Rng, hidden_dim: int, query_dim: int):
        self.hidden_dim = hidden_dim
        self.query_dim = query_dim
        self.W_a = uniform_init(rng, hidden_dim, query_dim)
        self.b_a = np.zeros(())

    def named_arrays(self, prefix: str = ""):
        yield prefix + "W_a", self.W_a
        yield prefix + "b_a", self.b_a


def attend(params: AttentionParams, states: np.ndarray, row_of: np.ndarray, query: np.ndarray,
           mask: np.ndarray, gather: np.ndarray):
    """Pool instance b of a chunk under query[b] (B, query_dim).

    states (tokens, hidden_dim) are packed rows; row_of (n, G) gives the
    row at each (position, column), -1 past the column's end, where mask
    (n, G) must be False, as at every position left out of the softmax
    (weight 0). gather (B,) is the column instance b reads. Returns
    (pooled (B, hidden_dim), weights (n, B), trace).
    """
    proj = query @ params.W_a.T
    rows = row_of[:, gather]
    raw = tanh(np.array([np.einsum("bh,bh->b", states[at], proj) for at in rows])
               + float(params.b_a))
    weights = softmax_stable(np.where(mask[:, gather], raw, -np.inf), axis=0)
    pooled = sum(w[:, None] * states[at] for w, at in zip(weights, rows))
    trace = dict(states=states, rows=rows, query=query, proj=proj, raw=raw, weights=weights)
    return pooled, weights, trace


def attention_backward(params: AttentionParams, trace: dict, d_pooled: np.ndarray, grads):
    """Backpropagate d_pooled (B, hidden_dim) through the pooling.

    Accumulates into grads.W_a / grads.b_a and returns (d_states (tokens,
    hidden_dim), one gradient per packed row, summed over the instances
    that read it; d_query (B, query_dim)). Masked positions get exactly
    zero gradient because their weights are zero on both paths.
    """
    states, rows, raw, weights = (trace[key] for key in ("states", "rows", "raw", "weights"))
    each = np.arange(rows.shape[1])

    # a row past an instance's end reads some packed row, at weight 0
    d_weights = (states @ d_pooled.T)[rows, each]
    # softmax jacobian: dL/ds_k = w_k * (dL/dw_k - sum_j w_j dL/dw_j)
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0))
    d_raw = d_scores * (1.0 - raw**2)

    grads.b_a += d_raw.sum()
    # (t, b): instance b's weight, or its d_raw, at packed row t if it
    # reads that row, else 0
    inside = rows >= 0
    at = rows[inside], np.broadcast_to(each, rows.shape)[inside]
    by_weight = np.zeros((len(states), len(each)))
    by_weight[at] = weights[inside]
    by_raw = np.zeros_like(by_weight)
    by_raw[at] = d_raw[inside]
    hden = by_raw.T @ states
    grads.W_a += hden.T @ trace["query"]
    d_states = by_weight @ d_pooled
    d_states += by_raw @ trace["proj"]
    return d_states, hden @ params.W_a
