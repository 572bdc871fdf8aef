"""Attention pooling of a hidden-state sequence against a query vector.

Each position gets a raw score tanh(h_k . (W q) + b); the scores pass
through a softmax restricted to unmasked positions, and the pooled output
is the weight-averaged hidden state. Masked positions receive weight
exactly zero, so padding never contributes.

Both passes run on a time-major chunk of B sequences: hiddens (n, B, H),
one query per row (B, Q) and a mask (n, B); the softmax runs down each
row's own column. Sums over positions add step by step, position k after
position k - 1, so trailing padding (exact zeros) leaves every result
bit-identical, and the forward pass builds no (n, B, H) temporary.
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


def attend(params: AttentionParams, hiddens: np.ndarray, query: np.ndarray, mask: np.ndarray,
           gather=None):
    """Pool hiddens (n, B, hidden_dim), row b under query[b] (B, query_dim).

    mask is a boolean (n, B) array; False positions are excluded from
    their row's softmax and get weight 0. gather (B,), when given, is the
    column of hiddens (n, G, hidden_dim) and of mask (n, G) that row b
    reads; each position's rows are then read from it one at a time, so
    no (n, B, hidden_dim) copy exists. Returns (pooled (B, hidden_dim),
    weights (n, B), trace).
    """
    def rows(k):
        return hiddens[k] if gather is None else hiddens[k, gather]

    proj = query @ params.W_a.T
    if gather is None:
        raw = np.einsum("nbh,bh->nb", hiddens, proj)
    else:
        mask = mask[:, gather]
        # column-major, as einsum lays out the scores of a gathered copy:
        # the softmax then sums them in the same order, bit for bit
        raw = np.empty(mask.shape, order="F")
        for k in range(len(hiddens)):
            raw[k] = np.einsum("bh,bh->b", rows(k), proj)
    raw = tanh(raw + float(params.b_a))
    weights = softmax_stable(np.where(mask, raw, -np.inf), axis=0)
    pooled = weights[0, :, None] * rows(0)
    for k in range(1, len(hiddens)):
        pooled += weights[k, :, None] * rows(k)
    trace = {
        "hiddens": hiddens,
        "query": query,
        "proj": proj,
        "raw": raw,
        "weights": weights,
        "mask": mask,
    }
    return pooled, weights, trace


def attention_backward(params: AttentionParams, trace: dict, d_pooled: np.ndarray, grads):
    """Backpropagate d_pooled (B, hidden_dim) through the pooling.

    Accumulates into grads.W_a / grads.b_a and returns (d_hiddens
    (n, B, hidden_dim), d_query (B, query_dim)). Masked positions end up
    with exactly zero d_hiddens rows because their weights are zero on
    both paths.
    """
    hiddens = trace["hiddens"]
    raw = trace["raw"]
    weights = trace["weights"]

    d_weights = np.einsum("nbh,bh->nb", hiddens, d_pooled)
    # softmax jacobian: dL/ds_k = w_k * (dL/dw_k - sum_j w_j dL/dw_j)
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0))
    d_raw = d_scores * (1.0 - raw**2)

    grads.b_a += d_raw.sum()
    hden = np.einsum("nb,nbh->bh", d_raw, hiddens)
    grads.W_a += hden.T @ trace["query"]
    d_hiddens = weights[..., None] * d_pooled
    d_hiddens += d_raw[..., None] * trace["proj"]
    return d_hiddens, hden @ params.W_a
