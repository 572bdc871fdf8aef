"""Independent reference implementation used only by tests.

Everything here is deliberately written with plain python lists, loops and
the math module, sharing no code with the package, so that agreement
between the two is evidence of correctness rather than of shared bugs.
"""

import math

from _loop_lstm import gate_blocks


def _mv(m, v):
    return [sum(m[r][c] * v[c] for c in range(len(v))) for r in range(len(m))]


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def _lstm_run(p, inputs, dh):
    """p maps gate names to nested lists; returns the list of hidden states."""
    h = [0.0] * dh
    c = [0.0] * dh
    hs = []
    for w in inputs:
        i = [_sig(z) for z in _add(_add(_mv(p["Wi_w"], w), _mv(p["Wi_h"], h)), p["bi"])]
        f = [_sig(z) for z in _add(_add(_mv(p["Wf_w"], w), _mv(p["Wf_h"], h)), p["bf"])]
        o = [_sig(z) for z in _add(_add(_mv(p["Wo_w"], w), _mv(p["Wo_h"], h)), p["bo"])]
        chat = [math.tanh(z) for z in _add(_add(_mv(p["Wc_w"], w), _mv(p["Wc_h"], h)), p["bc"])]
        c = [f[k] * c[k] + i[k] * chat[k] for k in range(dh)]
        h = [o[k] * math.tanh(c[k]) for k in range(dh)]
        hs.append(h)
    return hs


def _masked_mean(rows, mask):
    kept = [r for r, m in zip(rows, mask) if m]
    n = len(kept)
    return [sum(r[k] for r in kept) / n for k in range(len(kept[0]))]


def _attend(w_a, b_a, hiddens, query, mask):
    wq = _mv(w_a, query)
    raw = [math.tanh(_dot(h, wq) + b_a) for h in hiddens]
    exps = [math.exp(u) if m else 0.0 for u, m in zip(raw, mask)]
    total = sum(exps)
    weights = [e / total for e in exps]
    dim = len(hiddens[0])
    pooled = [sum(weights[k] * hiddens[k][j] for k in range(len(hiddens))) for j in range(dim)]
    return pooled, weights


def _lstm_lists(lstm):
    return {name: arr.tolist() for name, arr in gate_blocks(lstm).items()}


def oracle_probs(params, ctx_idx, tgt_idx):
    """Class probabilities of the ian model or one of its ablations
    (no_interaction, target2content, no_target, lstm_avg), each wired out
    by hand from the paper's description."""
    variant = params.variant
    table = params.embeddings.tolist()
    ctx = [table[int(i)] for i in ctx_idx]
    tgt = [table[int(i)] for i in tgt_idx]
    ctx_mask = [int(i) != 0 for i in ctx_idx]
    tgt_mask = [int(i) != 0 for i in tgt_idx]
    dh = params.hidden_dim

    def attend(attn, hiddens, query, mask):
        return _attend(attn.W_a.tolist(), float(attn.b_a), hiddens, query, mask)[0]

    ctx_h = _lstm_run(_lstm_lists(params.ctx_lstm), ctx, dh)
    c_avg = _masked_mean(ctx_h, ctx_mask)
    if variant == "lstm_avg":
        d = c_avg
    elif variant == "no_target":
        d = attend(params.ctx_attn, ctx_h, _masked_mean(tgt, tgt_mask), ctx_mask)
    else:
        tgt_h = _lstm_run(_lstm_lists(params.tgt_lstm), tgt, dh)
        t_avg = _masked_mean(tgt_h, tgt_mask)
        if variant == "ian":
            d = (attend(params.ctx_attn, ctx_h, t_avg, ctx_mask)
                 + attend(params.tgt_attn, tgt_h, c_avg, tgt_mask))
        elif variant == "no_interaction":
            d = (attend(params.ctx_attn, ctx_h, c_avg, ctx_mask)
                 + attend(params.tgt_attn, tgt_h, t_avg, tgt_mask))
        elif variant == "target2content":
            d = attend(params.ctx_attn, ctx_h, t_avg, ctx_mask) + t_avg
        else:
            raise ValueError(f"no oracle for variant {variant!r}")

    x = [math.tanh(z) for z in _add(_mv(params.W_l.tolist(), d), params.b_l.tolist())]
    exps = [math.exp(v) for v in x]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_cross_entropy(probs, label):
    return -math.log(probs[label])
