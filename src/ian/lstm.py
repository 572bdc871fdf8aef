"""Single-layer LSTM encoder over a sequence of word vectors.

Gates follow the standard formulation: input, forget and output gates are
sigmoids of affine maps of the current word and previous hidden state, the
candidate cell is a tanh of the same form, and

    c_k = f_k * c_{k-1} + i_k * chat_k
    h_k = o_k * tanh(c_k)

with h and c starting at zero. The backward pass is derived by hand and
checked against finite differences in the tests.
"""

from __future__ import annotations

import numpy as np

from .numerics import Matrix, Rng, sigmoid, tanh, uniform_init


class LstmParams:
    """Weights for one encoder: per gate, a word matrix, a hidden matrix
    and a bias. Biases start at zero, weights at U(-0.1, 0.1)."""

    MATRIX_NAMES = (
        "Wi_w", "Wi_h", "Wf_w", "Wf_h", "Wo_w", "Wo_h", "Wc_w", "Wc_h",
    )
    BIAS_NAMES = ("bi", "bf", "bo", "bc")

    def __init__(self, rng: Rng, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        for name in self.MATRIX_NAMES:
            cols = input_dim if name.endswith("_w") else hidden_dim
            setattr(self, name, uniform_init(rng, hidden_dim, cols))
        for name in self.BIAS_NAMES:
            setattr(self, name, np.zeros(hidden_dim))

    def named_arrays(self, prefix: str = ""):
        for name in self.MATRIX_NAMES + self.BIAS_NAMES:
            yield prefix + name, getattr(self, name)


def lstm_forward(params: LstmParams, inputs: Matrix):
    """Run the cell over inputs (n, input_dim).

    Returns (hiddens, trace): hiddens is (n, hidden_dim); the trace holds
    every intermediate the backward pass needs.
    """
    n = inputs.shape[0]
    dh = params.hidden_dim
    i_g = np.zeros((n, dh))
    f_g = np.zeros((n, dh))
    o_g = np.zeros((n, dh))
    c_hat = np.zeros((n, dh))
    cells = np.zeros((n, dh))
    tanh_c = np.zeros((n, dh))
    hiddens = np.zeros((n, dh))
    h_prevs = np.zeros((n, dh))
    c_prevs = np.zeros((n, dh))

    h = np.zeros(dh)
    c = np.zeros(dh)
    for k in range(n):
        w = inputs[k]
        h_prevs[k] = h
        c_prevs[k] = c
        i_g[k] = sigmoid(params.Wi_w @ w + params.Wi_h @ h + params.bi)
        f_g[k] = sigmoid(params.Wf_w @ w + params.Wf_h @ h + params.bf)
        o_g[k] = sigmoid(params.Wo_w @ w + params.Wo_h @ h + params.bo)
        c_hat[k] = tanh(params.Wc_w @ w + params.Wc_h @ h + params.bc)
        c = f_g[k] * c + i_g[k] * c_hat[k]
        cells[k] = c
        tanh_c[k] = tanh(c)
        h = o_g[k] * tanh_c[k]
        hiddens[k] = h

    trace = {
        "inputs": inputs,
        "i": i_g, "f": f_g, "o": o_g, "c_hat": c_hat,
        "cells": cells, "tanh_c": tanh_c,
        "h_prevs": h_prevs, "c_prevs": c_prevs,
    }
    return hiddens, trace


def lstm_backward(params: LstmParams, trace: dict, d_hiddens: Matrix, grads) -> Matrix:
    """Backpropagate d_hiddens (n, hidden_dim) through the whole sequence.

    Accumulates parameter gradients into `grads` (attribute access, += on
    matching shapes) and returns d_inputs (n, input_dim).
    """
    inputs = trace["inputs"]
    n = inputs.shape[0]
    d_inputs = np.zeros_like(inputs)
    dh_next = np.zeros(params.hidden_dim)
    dc_next = np.zeros(params.hidden_dim)

    for k in reversed(range(n)):
        i_g = trace["i"][k]
        f_g = trace["f"][k]
        o_g = trace["o"][k]
        c_hat = trace["c_hat"][k]
        tanh_c = trace["tanh_c"][k]
        h_prev = trace["h_prevs"][k]
        c_prev = trace["c_prevs"][k]
        w = inputs[k]

        dh = d_hiddens[k] + dh_next
        do = dh * tanh_c
        dc = dh * o_g * (1.0 - tanh_c**2) + dc_next
        df = dc * c_prev
        di = dc * c_hat
        dc_hat = dc * i_g

        d_pre_i = di * i_g * (1.0 - i_g)
        d_pre_f = df * f_g * (1.0 - f_g)
        d_pre_o = do * o_g * (1.0 - o_g)
        d_pre_c = dc_hat * (1.0 - c_hat**2)

        grads.Wi_w += np.outer(d_pre_i, w)
        grads.Wf_w += np.outer(d_pre_f, w)
        grads.Wo_w += np.outer(d_pre_o, w)
        grads.Wc_w += np.outer(d_pre_c, w)
        grads.Wi_h += np.outer(d_pre_i, h_prev)
        grads.Wf_h += np.outer(d_pre_f, h_prev)
        grads.Wo_h += np.outer(d_pre_o, h_prev)
        grads.Wc_h += np.outer(d_pre_c, h_prev)
        grads.bi += d_pre_i
        grads.bf += d_pre_f
        grads.bo += d_pre_o
        grads.bc += d_pre_c

        d_inputs[k] = (
            params.Wi_w.T @ d_pre_i
            + params.Wf_w.T @ d_pre_f
            + params.Wo_w.T @ d_pre_o
            + params.Wc_w.T @ d_pre_c
        )
        dh_next = (
            params.Wi_h.T @ d_pre_i
            + params.Wf_h.T @ d_pre_f
            + params.Wo_h.T @ d_pre_o
            + params.Wc_h.T @ d_pre_c
        )
        dc_next = dc * f_g

    return d_inputs
