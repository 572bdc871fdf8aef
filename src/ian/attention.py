"""Attention pooling of a hidden-state sequence against a query vector.

Each position gets a raw score tanh(h_k . (W q) + b); the scores pass
through a softmax restricted to unmasked positions, and the pooled output
is the weight-averaged hidden state. Masked positions receive weight
exactly zero, so padding never contributes.

Both passes run on a chunk's packed states (tokens, H). Each of B
instances has a query (B, Q) and a table rows (n, B) of the packed row it
reads at each position, so instances that share a context read its rows
in place. The weights fill a (tokens, B) pooling matrix (pool_matrix),
which pools by one product forward and one backward, as the model's
means and last states do; backward here covers the score path only.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, softmax_stable, uniform_init


class AttentionParams:
    """One score matrix (hidden_dim x query_dim) and a scalar bias, of dtype.

    The bias is kept as a 0-d array so every parameter in the model is an
    ndarray that can be updated in place.
    """

    def __init__(self, rng: Rng, hidden_dim: int, query_dim: int, dtype=np.float64):
        self.W_a = uniform_init(rng, np.empty((hidden_dim, query_dim), dtype))
        self.b_a = np.zeros((), dtype)

    def named_arrays(self, prefix: str = ""):
        yield prefix + "W_a", self.W_a
        yield prefix + "b_a", self.b_a


def pool_matrix(rows: np.ndarray, values: np.ndarray, tokens: int) -> np.ndarray:
    """The (tokens, B) matrix of values' dtype holding values[k, b] (n, B) at
    row rows[k, b] of column b wherever that row is >= 0, and zero elsewhere."""
    inside = rows >= 0
    matrix = np.zeros((tokens, rows.shape[1]), values.dtype)
    matrix[rows[inside], np.nonzero(inside)[1]] = values[inside]
    return matrix


def attend(params: AttentionParams, states: np.ndarray, rows: np.ndarray, query: np.ndarray):
    """Weigh instance b's rows of packed states (tokens, hidden_dim) under
    query[b] (B, query_dim). rows[k, b] is the packed row it reads at
    position k, -1 where it reads none (a pad, or past its end), which the
    softmax leaves out at weight 0. Returns (weights (n, B), trace)."""
    proj = query @ params.W_a.T
    # every row scored against every query; each instance keeps its own
    raw = np.tanh((states @ proj.T)[rows, np.arange(rows.shape[1])] + params.b_a)
    weights = softmax_stable(np.where(rows >= 0, raw, -np.inf), axis=0)
    trace = dict(states=states, rows=rows, query=query, proj=proj, raw=raw, weights=weights)
    return weights, trace


def attention_backward(params: AttentionParams, trace: dict, d_pooled: np.ndarray, grads):
    """Backpropagate d_pooled (B, hidden_dim) through the scores that set
    the weights: accumulates into grads.W_a / grads.b_a and returns
    (d_states (tokens, hidden_dim), summed over the instances that read a
    row; d_query (B, query_dim)). The weighted sum's own share of d_states
    is the caller's. Positions left out of the softmax get zero gradient."""
    states, rows, raw, weights = (trace[key] for key in ("states", "rows", "raw", "weights"))
    # a position that reads no row reads some packed row, at weight 0
    d_weights = (states @ d_pooled.T)[rows, np.arange(rows.shape[1])]
    # softmax jacobian: dL/ds_k = w_k * (dL/dw_k - sum_j w_j dL/dw_j)
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0))
    d_raw = d_scores * (1.0 - raw**2)

    grads.b_a += d_raw.sum()
    by_raw = pool_matrix(rows, d_raw, len(states))
    hden = by_raw.T @ states
    grads.W_a += hden.T @ trace["query"]
    return by_raw @ trace["proj"], hden @ params.W_a
