"""Attention pooling of a hidden-state sequence against a query vector.

Each position gets a raw score tanh(h_k . (W q) + b); the scores pass
through a softmax restricted to unmasked positions, and the pooled output
is the weight-averaged hidden state. Masked positions receive weight
exactly zero, so padding never contributes.

Both passes run on a time-major chunk: one query per row (B, Q) and G
columns of states, hiddens (n, G, H) with a mask (n, G). A gather (B,)
names the column each row reads, so rows that share a column (the aspect
terms of one sentence) read it in place, and backward sums their state
gradients onto it with a 0/1 column-by-row matrix. Forward sums over
positions add step by step, position k after position k - 1, so trailing
padding (exact zeros) leaves every result bit-identical.
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
           gather: np.ndarray):
    """Pool row b of a chunk under query[b] (B, query_dim).

    hiddens (n, G, hidden_dim) and the boolean mask (n, G) hold G columns;
    gather (B,) is the column row b reads, so the instances that share a
    column read it in place, position by position, and no (n, B,
    hidden_dim) copy exists. False positions are excluded from their row's
    softmax and get weight 0. Returns (pooled (B, hidden_dim), weights
    (n, B), trace).
    """
    proj = query @ params.W_a.T
    raw = np.empty((len(hiddens), len(gather)))
    for k in range(len(hiddens)):
        raw[k] = np.einsum("bh,bh->b", hiddens[k, gather], proj)
    raw = tanh(raw + float(params.b_a))
    weights = softmax_stable(np.where(mask[:, gather], raw, -np.inf), axis=0)
    pooled = weights[0, :, None] * hiddens[0, gather]
    for k in range(1, len(hiddens)):
        pooled += weights[k, :, None] * hiddens[k, gather]
    trace = {
        "hiddens": hiddens,
        "gather": gather,
        "query": query,
        "proj": proj,
        "raw": raw,
        "weights": weights,
    }
    return pooled, weights, trace


def onto_columns(gather: np.ndarray, columns: int) -> np.ndarray:
    """The 0/1 (columns, B) matrix whose product with a (B, ...) array of
    per-row gradients sums the rows that read each column."""
    return gather == np.arange(columns)[:, None]


def attention_backward(params: AttentionParams, trace: dict, d_pooled: np.ndarray, grads):
    """Backpropagate d_pooled (B, hidden_dim) through the pooling.

    Accumulates into grads.W_a / grads.b_a and returns (d_hiddens
    (n, G, hidden_dim), the rows that read a column summed onto it;
    d_query (B, query_dim)). Masked positions get exactly zero d_hiddens
    rows because their weights are zero on both paths.
    """
    hiddens, gather = trace["hiddens"], trace["gather"]
    raw = trace["raw"]
    weights = trace["weights"]
    n, columns, hidden_dim = hiddens.shape
    rows = np.arange(len(gather))

    d_weights = (hiddens @ d_pooled.T)[:, gather, rows]
    # softmax jacobian: dL/ds_k = w_k * (dL/dw_k - sum_j w_j dL/dw_j)
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0))
    d_raw = d_scores * (1.0 - raw**2)

    grads.b_a += d_raw.sum()
    onto = onto_columns(gather, columns)
    # (k, g, b): row b's gradient at position k if it reads column g, else 0
    d_raw_onto = onto * d_raw[:, None]
    hden = d_raw_onto.reshape(n * columns, -1).T @ hiddens.reshape(n * columns, hidden_dim)
    grads.W_a += hden.T @ trace["query"]
    d_hiddens = (onto * weights[:, None]) @ d_pooled
    d_hiddens += d_raw_onto @ trace["proj"]
    return d_hiddens, hden @ params.W_a
