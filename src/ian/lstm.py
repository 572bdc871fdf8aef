"""Single-layer LSTM encoder over a sequence of word vectors.

Gates follow the standard formulation: input, forget and output gates are
sigmoids of affine maps of the current word and previous hidden state, the
candidate cell is a tanh of the same form, and

    c_k = f_k * c_{k-1} + i_k * chat_k
    h_k = o_k * tanh(c_k)

with h and c starting at zero.

The four gates are stored fused, in i, f, o, c order: a word matrix
W_x (4H x E), a hidden matrix W_h (4H x H) and a bias b (4H), where gate g
owns rows g*H to (g+1)*H. The per-gate names Wi_w ... Wc_h and bi ... bc
are row-slice views into those three arrays, not copies, so writing
through either name writes the same memory; checkpoints, gradient sets
and the optimizer address the parameters by the per-gate names.

The forward pass projects every word through W_x in one matrix product
before the recurrence, leaving one W_h product per step (Appleyard et al.
2016, arXiv:1604.01946). The backward pass is derived by hand: the
recurrence fills the gate pre-activation gradients dZ (n x 4H) step by
step, and the input gradients and every weight gradient are matrix
products of dZ after the loop. It is checked against finite differences
and against the per-gate loop it replaced in the tests.
"""

from __future__ import annotations

import numpy as np

from .numerics import Matrix, Rng, sigmoid, tanh, uniform_init

GATES = ("i", "f", "o", "c")


class LstmParams:
    """Weights for one encoder: fused W_x, W_h and b, with per-gate views.
    Biases start at zero, weights at U(-0.1, 0.1)."""

    MATRIX_NAMES = (
        "Wi_w", "Wi_h", "Wf_w", "Wf_h", "Wo_w", "Wo_h", "Wc_w", "Wc_h",
    )
    BIAS_NAMES = ("bi", "bf", "bo", "bc")

    def __init__(self, rng: Rng, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.W_x = np.empty((4 * hidden_dim, input_dim))
        self.W_h = np.empty((4 * hidden_dim, hidden_dim))
        self.b = np.zeros(4 * hidden_dim)
        for g, gate in enumerate(GATES):
            rows = slice(g * hidden_dim, (g + 1) * hidden_dim)
            setattr(self, f"W{gate}_w", self.W_x[rows])
            setattr(self, f"W{gate}_h", self.W_h[rows])
            setattr(self, f"b{gate}", self.b[rows])
        # draw gate by gate in the order of the per-gate layout, so a seed
        # gives the same weights as drawing each gate matrix on its own
        for name in self.MATRIX_NAMES:
            cols = input_dim if name.endswith("_w") else hidden_dim
            getattr(self, name)[...] = uniform_init(rng, hidden_dim, cols)

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
    # pre-activations from the words, then the gate activations, in place
    gates = inputs @ params.W_x.T + params.b
    cells = np.empty((n, dh))
    tanh_c = np.empty((n, dh))
    hiddens = np.empty((n, dh))

    h = np.zeros(dh)
    c = np.zeros(dh)
    for k in range(n):
        z = gates[k]
        z += params.W_h @ h
        z[:3 * dh] = sigmoid(z[:3 * dh])
        z[3 * dh:] = tanh(z[3 * dh:])
        c = z[dh:2 * dh] * c + z[:dh] * z[3 * dh:]
        cells[k] = c
        tanh_c[k] = tanh(c)
        h = z[2 * dh:3 * dh] * tanh_c[k]
        hiddens[k] = h

    trace = {
        "inputs": inputs, "gates": gates, "cells": cells, "tanh_c": tanh_c,
        "hiddens": hiddens,
    }
    for g, gate in enumerate(("i", "f", "o", "c_hat")):
        trace[gate] = gates[:, g * dh:(g + 1) * dh]
    return hiddens, trace


def lstm_backward(params: LstmParams, trace: dict, d_hiddens: Matrix, grads) -> Matrix:
    """Backpropagate d_hiddens (n, hidden_dim) through the whole sequence.

    Accumulates parameter gradients into `grads` (per-gate attribute
    access, += on matching shapes) and returns d_inputs (n, input_dim).
    """
    inputs = trace["inputs"]
    gates = trace["gates"]
    cells = trace["cells"]
    tanh_c = trace["tanh_c"]
    i_g, f_g, o_g, c_hat = trace["i"], trace["f"], trace["o"], trace["c_hat"]
    n = inputs.shape[0]
    dh = params.hidden_dim

    # derivative of each gate's nonlinearity at its pre-activation
    d_act = gates * (1.0 - gates)
    d_act[:, 3 * dh:] = 1.0 - c_hat**2
    d_cell = o_g * (1.0 - tanh_c**2)

    dZ = np.empty((n, 4 * dh))
    dh_next = np.zeros(dh)
    dc_next = np.zeros(dh)
    for k in reversed(range(n)):
        dh_k = d_hiddens[k] + dh_next
        dc = dh_k * d_cell[k] + dc_next
        dz = dZ[k]
        dz[:dh] = dc * c_hat[k]
        dz[dh:2 * dh] = dc * cells[k - 1] if k else 0.0
        dz[2 * dh:3 * dh] = dh_k * tanh_c[k]
        dz[3 * dh:] = dc * i_g[k]
        dz *= d_act[k]
        dh_next = params.W_h.T @ dz
        dc_next = dc * f_g[k]

    # h_prev is zero at step 0, so only steps 1..n-1 reach the W_h gradient
    h_prevs = trace["hiddens"][:-1]
    for g, gate in enumerate(GATES):
        dz_gate = dZ[:, g * dh:(g + 1) * dh]
        w_grad = getattr(grads, f"W{gate}_w")
        w_grad += dz_gate.T @ inputs
        h_grad = getattr(grads, f"W{gate}_h")
        h_grad += dz_gate[1:].T @ h_prevs
        b_grad = getattr(grads, f"b{gate}")
        b_grad += dz_gate.sum(axis=0)
    return dZ @ params.W_x
