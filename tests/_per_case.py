"""Per-case forward, backward, loss and training loop: the reference for
the batched package code.

This is the model the package ran before every pass moved to padded,
time-major chunks: one instance at a time, one matrix-vector product per
LSTM step, the attention softmax over one sequence, the L2 penalty and its
gradient recomputed for every case, and a training loop that draws one
dropout mask and runs one forward and backward pass per case. It reads the
package's parameter objects (ModelParams, GradSet, the routing table) and
nothing of its passes, so the batched code and this reference run on the
very same parameters.
"""

import numpy as np

from ian.data import Instance
from ian.embeddings import PAD_INDEX
from ian.model import ROUTES, feature_sides
from ian.training import GradSet, momentum_step


def case(ctx_idx, tgt_idx, span, label):
    """An Instance holding only what the passes read."""
    return Instance(context_ids=tuple(ctx_idx), target_ids=tuple(tgt_idx), span=span,
                    label=label, target_text="")


def sigmoid(x):
    """Logistic function, stable on both tails: the np.where form the
    package computed before it moved to 0.5 * tanh(x / 2) + 0.5."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


# -- LSTM over one sequence (n, E) -------------------------------------------


def lstm_forward(params, inputs):
    n = inputs.shape[0]
    dh = params.hidden_dim
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
        z[3 * dh:] = np.tanh(z[3 * dh:])
        c = z[dh:2 * dh] * c + z[:dh] * z[3 * dh:]
        cells[k] = c
        tanh_c[k] = np.tanh(c)
        h = z[2 * dh:3 * dh] * tanh_c[k]
        hiddens[k] = h
    return hiddens, {"inputs": inputs, "gates": gates, "cells": cells, "tanh_c": tanh_c,
                     "hiddens": hiddens}


def lstm_backward(params, trace, d_hiddens, grads):
    inputs, gates, cells, tanh_c = (trace[k] for k in ("inputs", "gates", "cells", "tanh_c"))
    n = inputs.shape[0]
    dh = params.hidden_dim
    i_g, f_g, o_g, c_hat = (gates[:, g * dh:(g + 1) * dh] for g in range(4))
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
    h_prevs = trace["hiddens"][:-1]
    for lo in range(0, 4 * dh, dh):
        dz_gate = dZ[:, lo:lo + dh]
        grads.W_x[lo:lo + dh] += dz_gate.T @ inputs
        grads.W_h[lo:lo + dh] += dz_gate[1:].T @ h_prevs
        grads.b[lo:lo + dh] += dz_gate.sum(axis=0)
    return dZ @ params.W_x


# -- attention over one sequence ---------------------------------------------


def attend(params, hiddens, query, mask):
    raw = np.tanh(hiddens @ (params.W_a @ query) + float(params.b_a))
    weights = _softmax(np.where(mask, raw, -np.inf))
    return weights @ hiddens, {"hiddens": hiddens, "query": query, "raw": raw,
                               "weights": weights}


def attention_backward(params, trace, d_pooled, grads):
    hiddens, query, raw, weights = (trace[k] for k in ("hiddens", "query", "raw", "weights"))
    d_weights = hiddens @ d_pooled
    d_hiddens = np.outer(weights, d_pooled)
    d_scores = weights * (d_weights - float(weights @ d_weights))
    d_raw = d_scores * (1.0 - raw**2)
    grads.b_a += d_raw.sum()
    hden = hiddens.T @ d_raw
    grads.W_a += np.outer(hden, query)
    d_hiddens += np.outer(d_raw, params.W_a @ query)
    return d_hiddens, params.W_a.T @ hden


# -- the model over one case -------------------------------------------------


def _masked_mean(rows, mask):
    return rows[mask].sum(axis=0) / int(mask.sum())


def forward(params, ctx_idx, tgt_idx, span=None, dropout_mask=None):
    if params.variant == "majority":
        return params.class_priors.copy(), {}
    ctx_idx = np.asarray(ctx_idx, dtype=np.int64)
    tgt_idx = np.asarray(tgt_idx, dtype=np.int64)
    trace = {"ctx_idx": ctx_idx, "tgt_idx": tgt_idx, "span": span}
    ctx_emb = params.embeddings[ctx_idx]
    if params.variant == "td_lstm":
        start, end = span
        left_h, trace["left_trace"] = lstm_forward(params.ctx_lstm, ctx_emb[:end])
        right_h, trace["right_trace"] = lstm_forward(params.tgt_lstm, ctx_emb[start:][::-1])
        trace.update(ctx_emb=ctx_emb, left_len=end, right_len=len(ctx_idx) - start)
        features = np.concatenate([left_h[-1], right_h[-1]])
    else:
        route = ROUTES[params.variant]
        ctx_h, trace["ctx_lstm_trace"] = lstm_forward(params.ctx_lstm, ctx_emb)
        states = {"ctx": ctx_h}
        masks = {"ctx": ctx_idx != PAD_INDEX}
        if route.target is not None:
            masks["tgt"] = tgt_idx != PAD_INDEX
            states["tgt"] = params.embeddings[tgt_idx]
            if route.target == "lstm":
                states["tgt"], trace["tgt_lstm_trace"] = lstm_forward(params.tgt_lstm,
                                                                      states["tgt"])
        avgs = {side: _masked_mean(states[side], masks[side]) for side in states}
        trace["masks"] = masks
        pooled = []
        for side, query in feature_sides(route):
            if query == "mean":
                pooled.append(avgs[side])
            else:
                vec, trace[f"{side}_attn_trace"] = attend(
                    getattr(params, f"{side}_attn"), states[side], avgs[query], masks[side])
                pooled.append(vec)
        features = np.concatenate(pooled)
    dropped = features if dropout_mask is None else features * dropout_mask
    x = np.tanh(params.W_l @ dropped + params.b_l)
    probs = _softmax(x)
    trace.update(dropout_mask=dropout_mask, dropped=dropped, x=x, probs=probs)
    return probs, trace


def _scatter(table_grads, idx, d_emb):
    real = idx != PAD_INDEX
    np.add.at(table_grads, idx[real], d_emb[real])


def backward(params, trace, label, grads):
    dx = trace["probs"].copy()
    dx[label] -= 1.0
    dz = dx * (1.0 - trace["x"]**2)
    grads.W_l += np.outer(dz, trace["dropped"])
    grads.b_l += dz
    dd = params.W_l.T @ dz
    if trace["dropout_mask"] is not None:
        dd = dd * trace["dropout_mask"]
    dh = params.hidden_dim
    if params.variant == "td_lstm":
        d_left_h = np.zeros((trace["left_len"], dh))
        d_left_h[-1] = dd[:dh]
        d_right_h = np.zeros((trace["right_len"], dh))
        d_right_h[-1] = dd[dh:]
        d_left = lstm_backward(params.ctx_lstm, trace["left_trace"], d_left_h, grads.ctx_lstm)
        d_right = lstm_backward(params.tgt_lstm, trace["right_trace"], d_right_h,
                                grads.tgt_lstm)
        start, end = trace["span"]
        d_ctx_emb = np.zeros_like(trace["ctx_emb"])
        d_ctx_emb[:end] += d_left
        d_ctx_emb[start:] += d_right[::-1]
        _scatter(grads.embeddings, trace["ctx_idx"], d_ctx_emb)
        return
    route = ROUTES[params.variant]
    masks = trace["masks"]
    d_states, d_avgs = {}, {}

    def add(total, key, grad):
        total[key] = total[key] + grad if key in total else grad

    for k, (side, query) in enumerate(feature_sides(route)):
        d_pooled = dd[k * dh:(k + 1) * dh]
        if query == "mean":
            add(d_avgs, side, d_pooled)
        else:
            d_states[side], d_query = attention_backward(
                getattr(params, f"{side}_attn"), trace[f"{side}_attn_trace"], d_pooled,
                getattr(grads, f"{side}_attn"))
            add(d_avgs, query, d_query)
    for side, d_avg in d_avgs.items():
        mask = masks[side]
        spread = np.zeros((mask.shape[0], d_avg.shape[0]))
        spread[mask] = d_avg / int(mask.sum())
        add(d_states, side, spread)
    for side in masks:
        d_emb = d_states[side]
        if side == "ctx" or route.target == "lstm":
            d_emb = lstm_backward(getattr(params, f"{side}_lstm"), trace[f"{side}_lstm_trace"],
                                  d_emb, getattr(grads, f"{side}_lstm"))
        _scatter(grads.embeddings, trace[f"{side}_idx"], d_emb)


# -- loss, gradients and training, case by case ------------------------------


def _rows(ctx_idx, tgt_idx):
    rows = np.unique(np.concatenate([np.asarray(ctx_idx), np.asarray(tgt_idx)]))
    return rows[rows != PAD_INDEX]


def _decayed(params):
    """(name, array) of each weight map the L2 penalty charges in full:
    every 2-D array but the embedding table, whose rows are charged per read."""
    return [(name, arr) for name, arr in params.named_arrays()
            if arr.ndim == 2 and name != "embeddings"]


def _l2_penalty(params, rows, l2):
    if l2 == 0.0:
        return 0.0
    total = sum(float(np.sum(arr ** 2)) for _, arr in _decayed(params))
    if rows.size:
        total += float(np.sum(params.embeddings[rows] ** 2))
    return l2 * total


def _cross_entropy(probs, label):
    return -np.log(max(float(probs[label]), 1e-12))


def case_loss(params, ctx_idx, tgt_idx, span, label, l2=0.0, drop_mask=None):
    """Scalar training loss of one case."""
    probs, _ = forward(params, ctx_idx, tgt_idx, span=span, dropout_mask=drop_mask)
    return _cross_entropy(probs, label) + _l2_penalty(params, _rows(ctx_idx, tgt_idx), l2)


def case_loss_and_grads(params, ctx_idx, tgt_idx, span, label, l2=0.0, drop_mask=None,
                        grads=None):
    """Forward + backward for one case, the L2 gradient included."""
    if grads is None:
        grads = GradSet(params)
    probs, trace = forward(params, ctx_idx, tgt_idx, span=span, dropout_mask=drop_mask)
    backward(params, trace, label, grads)
    rows = _rows(ctx_idx, tgt_idx)
    if l2:
        for name, arr in _decayed(params):
            grads[name][...] += 2.0 * l2 * arr
        grads.embeddings[rows] += 2.0 * l2 * params.embeddings[rows]
    return _cross_entropy(probs, label) + _l2_penalty(params, rows, l2), grads


def case_predict(params, instances):
    """Argmax label per instance, one forward pass each."""
    return np.array([int(np.argmax(forward(params, i.context_ids, i.target_ids,
                                           span=i.span)[0])) for i in instances])


def case_train(params, instances, config, rng):
    """The per-case training loop: one dropout mask draw, forward and
    backward per case, batch gradients averaged. Returns per-epoch losses."""
    feat = params.feature_dim()
    grads, velocity = GradSet(params), GradSet(params)
    losses = []
    n = len(instances)
    for _ in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            grads.zero()
            for j in batch:
                inst = instances[j]
                mask = None
                if config.dropout:
                    mask = (rng.random(feat) >= config.dropout) / (1.0 - config.dropout)
                loss, _ = case_loss_and_grads(params, inst.context_ids, inst.target_ids,
                                              inst.span, inst.label, l2=config.l2,
                                              drop_mask=mask, grads=grads)
                total += loss
            grads.scale(1.0 / len(batch))
            if config.clip_norm is not None:
                norm = grads.global_norm()
                if norm > config.clip_norm:
                    grads.scale(config.clip_norm / norm)
            momentum_step(params, grads, velocity, config.learning_rate, config.momentum)
        losses.append(total / n)
    return losses
