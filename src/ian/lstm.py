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

Both passes run on time-major chunks: inputs (n, B, E) hold B sequences
side by side, step k of all of them in the contiguous slice inputs[k].
The forward pass projects every word through W_x in one matrix product
before the recurrence, leaving one (B, H) x (H, 4H) product per step
(Appleyard et al. 2016, arXiv:1604.01946). The backward pass is derived
by hand: the recurrence writes the gate pre-activation gradients dZ
(n, B, 4H) over the gate activations of the trace, step by step, and the
input gradients and every weight gradient are matrix products of dZ after
the loop; tanh(c) is recomputed rather than stored. It is checked against
finite differences and against the per-gate loop it replaced in the tests.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, sigmoid, tanh, uniform_init

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


def lstm_forward(params: LstmParams, inputs: np.ndarray):
    """Run the cell over a time-major chunk inputs (n, B, input_dim).

    Every row of the chunk runs all n steps; a row shorter than n reads
    zero (pad) vectors after its end, which leaves its earlier states
    unchanged. Returns (hiddens, trace): hiddens is (n, B, hidden_dim);
    the trace holds what the backward pass needs.
    """
    n, batch, _ = inputs.shape
    dh = params.hidden_dim
    # pre-activations from the words, then the gate activations, in place
    gates = inputs.reshape(n * batch, -1) @ params.W_x.T
    gates += params.b
    gates = gates.reshape(n, batch, 4 * dh)
    cells = np.empty((n, batch, dh))
    hiddens = np.empty((n, batch, dh))

    h = np.zeros((batch, dh))
    c = np.zeros((batch, dh))
    for k in range(n):
        z = gates[k]
        z += h @ params.W_h.T
        z[:, :3 * dh] = sigmoid(z[:, :3 * dh])
        z[:, 3 * dh:] = tanh(z[:, 3 * dh:])
        c = z[:, dh:2 * dh] * c + z[:, :dh] * z[:, 3 * dh:]
        cells[k] = c
        h = z[:, 2 * dh:3 * dh] * tanh(c)
        hiddens[k] = h

    trace = {"inputs": inputs, "gates": gates, "cells": cells, "hiddens": hiddens}
    for g, gate in enumerate(("i", "f", "o", "c_hat")):
        trace[gate] = gates[..., g * dh:(g + 1) * dh]
    return hiddens, trace


def lstm_backward(params: LstmParams, trace: dict, d_hiddens: np.ndarray, grads) -> np.ndarray:
    """Backpropagate d_hiddens (n, B, hidden_dim) through the whole chunk.

    Accumulates parameter gradients into `grads` (per-gate attribute
    access, += on matching shapes) and returns d_inputs (n, B, input_dim).
    The trace is consumed: the gate pre-activation gradients are written
    over its gate activations, step by step from the last.
    """
    inputs = trace["inputs"]
    cells = trace["cells"]
    dZ = trace["gates"]
    n, batch, _ = inputs.shape
    dh = params.hidden_dim

    dh_next = np.zeros((batch, dh))
    dc_next = np.zeros((batch, dh))
    for k in reversed(range(n)):
        # each gate slot is read for the last time before its gradient
        # is written over it
        z = dZ[k]
        i_g, f_g, o_g, c_hat = (z[:, g * dh:(g + 1) * dh] for g in range(4))
        tanh_c = tanh(cells[k])
        dh_k = d_hiddens[k] + dh_next
        dc = dh_k * o_g * (1.0 - tanh_c**2) + dc_next
        d_i = dc * c_hat * i_g * (1.0 - i_g)
        c_hat[...] = dc * i_g * (1.0 - c_hat**2)
        i_g[...] = d_i
        o_g[...] = dh_k * tanh_c * o_g * (1.0 - o_g)
        dc_next = dc * f_g
        f_g[...] = dc * cells[k - 1] * f_g * (1.0 - f_g) if k else 0.0
        dh_next = z @ params.W_h

    # h_prev is zero at step 0, so only steps 1..n-1 reach the W_h gradient
    flat_dZ = dZ.reshape(n * batch, 4 * dh)
    flat_inputs = inputs.reshape(n * batch, -1)
    h_prevs = trace["hiddens"][:-1].reshape((n - 1) * batch, dh)
    for g, gate in enumerate(GATES):
        dz_gate = flat_dZ[:, g * dh:(g + 1) * dh]
        w_grad = getattr(grads, f"W{gate}_w")
        w_grad += dz_gate.T @ flat_inputs
        h_grad = getattr(grads, f"W{gate}_h")
        h_grad += dz_gate[batch:].T @ h_prevs
        b_grad = getattr(grads, f"b{gate}")
        b_grad += dz_gate.sum(axis=0)
    return (flat_dZ @ params.W_x).reshape(n, batch, -1)
