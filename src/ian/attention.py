"""Attention pooling of a hidden-state sequence against a query vector.

Each position gets a raw score tanh(h_k . (W q) + b); the scores pass
through a softmax restricted to unmasked positions, and the pooled output
is the weight-averaged hidden state. Masked positions receive weight
exactly zero, so padding never contributes.
"""

from __future__ import annotations

import numpy as np

from .numerics import Matrix, Rng, Vector, softmax_stable, tanh, uniform_init


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


def attend(params: AttentionParams, hiddens: Matrix, query: Vector, mask: np.ndarray):
    """Pool hiddens (n, hidden_dim) under the query (query_dim,).

    mask is a boolean (n,) array; False positions are excluded from the
    softmax and get weight 0. Returns (pooled, weights, trace).
    """
    raw = tanh(hiddens @ (params.W_a @ query) + float(params.b_a))
    masked = np.where(mask, raw, -np.inf)
    weights = softmax_stable(masked)
    pooled = weights @ hiddens
    trace = {
        "hiddens": hiddens,
        "query": query,
        "raw": raw,
        "weights": weights,
        "mask": mask,
    }
    return pooled, weights, trace


def attention_backward(params: AttentionParams, trace: dict, d_pooled: Vector, grads):
    """Backpropagate d_pooled through the pooling.

    Accumulates into grads.W_a / grads.b_a and returns (d_hiddens, d_query).
    Masked positions end up with exactly zero d_hiddens rows because their
    weights are zero on both paths.
    """
    hiddens = trace["hiddens"]
    query = trace["query"]
    raw = trace["raw"]
    weights = trace["weights"]

    d_weights = hiddens @ d_pooled
    d_hiddens = np.outer(weights, d_pooled)

    # softmax jacobian: dL/ds_k = w_k * (dL/dw_k - sum_j w_j dL/dw_j)
    d_scores = weights * (d_weights - float(weights @ d_weights))
    d_raw = d_scores * (1.0 - raw**2)

    grads.b_a += d_raw.sum()
    hden = hiddens.T @ d_raw
    grads.W_a += np.outer(hden, query)
    d_hiddens += np.outer(d_raw, params.W_a @ query)
    d_query = params.W_a.T @ hden
    return d_hiddens, d_query
