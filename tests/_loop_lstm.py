"""Per-gate LSTM loop kept as the reference for the fused implementation.

This is the LSTM the package ran before its gates were fused: one
matrix-vector product per gate and input per step, and per-step outer
products for the weight gradients. It reads an LstmParams through
`gate_blocks`, the per-gate arrays of the loop era (Wi_w ... Wc_h, bi ...
bc) as row-block views into the fused W_x, W_h and b, so the fused package
code and this loop run on the very same parameters. `reference_init` draws
a fresh parameter set the way the loop-era constructor did;
`chunk_forward` and `chunk_backward` run the loop on each sequence of a
time-major chunk, over its own length, so it can stand in for the
package's chunk passes.
"""

import numpy as np

from _per_case import sigmoid
from ian.numerics import tanh, uniform_init

GATES = ("i", "f", "o", "c")


def gate_blocks(lstm):
    """The per-gate arrays of an LstmParams, or of anything with its W_x,
    W_h and b, by their loop-era names: gate g's rows g*H to (g+1)*H of each
    fused array, as views, so writing a block writes the fused array."""
    blocks = {}
    for gate, x, h, b in zip(GATES, *(np.split(a, 4) for a in (lstm.W_x, lstm.W_h, lstm.b))):
        blocks.update({f"W{gate}_w": x, f"W{gate}_h": h, f"b{gate}": b})
    return blocks


def reference_init(rng, input_dim, hidden_dim):
    """Per-gate arrays in the loop-era draw order: matrices, then zero biases."""
    arrays = {}
    for gate in GATES:
        arrays[f"W{gate}_w"] = uniform_init(rng, np.empty((hidden_dim, input_dim)))
        arrays[f"W{gate}_h"] = uniform_init(rng, np.empty((hidden_dim, hidden_dim)))
    for gate in GATES:
        arrays[f"b{gate}"] = np.zeros(hidden_dim)
    return arrays


def loop_lstm_forward(params, inputs):
    n = inputs.shape[0]
    dh = params.hidden_dim
    p = gate_blocks(params)
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
        i_g[k] = sigmoid(p["Wi_w"] @ w + p["Wi_h"] @ h + p["bi"])
        f_g[k] = sigmoid(p["Wf_w"] @ w + p["Wf_h"] @ h + p["bf"])
        o_g[k] = sigmoid(p["Wo_w"] @ w + p["Wo_h"] @ h + p["bo"])
        c_hat[k] = tanh(p["Wc_w"] @ w + p["Wc_h"] @ h + p["bc"])
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


def loop_lstm_backward(params, trace, d_hiddens, grads):
    p, g = gate_blocks(params), gate_blocks(grads)
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

        g["Wi_w"] += np.outer(d_pre_i, w)
        g["Wf_w"] += np.outer(d_pre_f, w)
        g["Wo_w"] += np.outer(d_pre_o, w)
        g["Wc_w"] += np.outer(d_pre_c, w)
        g["Wi_h"] += np.outer(d_pre_i, h_prev)
        g["Wf_h"] += np.outer(d_pre_f, h_prev)
        g["Wo_h"] += np.outer(d_pre_o, h_prev)
        g["Wc_h"] += np.outer(d_pre_c, h_prev)
        g["bi"] += d_pre_i
        g["bf"] += d_pre_f
        g["bo"] += d_pre_o
        g["bc"] += d_pre_c

        d_inputs[k] = (
            p["Wi_w"].T @ d_pre_i
            + p["Wf_w"].T @ d_pre_f
            + p["Wo_w"].T @ d_pre_o
            + p["Wc_w"].T @ d_pre_c
        )
        dh_next = (
            p["Wi_h"].T @ d_pre_i
            + p["Wf_h"].T @ d_pre_f
            + p["Wo_h"].T @ d_pre_o
            + p["Wc_h"].T @ d_pre_c
        )
        dc_next = dc * f_g

    return d_inputs


def chunk_forward(params, ids, table, lengths=None, keep_trace=True):
    """loop_lstm_forward on each sequence of a time-major chunk of ids
    (n, B) into table, row b over its first lengths[b] steps (default all
    n). Returns (states, row_of, trace) as the package's pass does, but
    packs the states column after column, not step after step: a caller
    that reads them through row_of cannot tell. It keeps its trace
    whatever keep_trace says."""
    n, batch = ids.shape
    lengths = np.full(batch, n) if lengths is None else np.asarray(lengths)
    inside = np.arange(n)[:, None] < lengths
    row_of = np.full((n, batch), -1)
    row_of.T[inside.T] = np.arange(inside.sum())
    states = np.empty((inside.sum(), params.hidden_dim))
    rows = []
    for b, length in enumerate(lengths):
        states[row_of[:length, b]], trace = loop_lstm_forward(params, table[ids[:length, b]])
        trace["ids"] = ids[:length, b]
        rows.append(trace)
    return states, row_of, {"rows": rows, "row_of": row_of}


def chunk_backward(params, trace, d_states, grads, d_table):
    """loop_lstm_backward on each sequence of a chunk traced by
    chunk_forward, from its packed d_states; each input gradient is added
    to the table row its word was read from."""
    for b, row in enumerate(trace["rows"]):
        d_x = loop_lstm_backward(params, row, d_states[trace["row_of"][:len(row["ids"]), b]],
                                 grads)
        np.add.at(d_table, row["ids"], d_x)
