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

Both passes run on time-major chunks: ids (n, B) hold B sequences of
word ids side by side, step k of all of them in ids[k], and each row has
its own length; the forward pass reads the vectors of the real words from
the embedding table, so no padded (n, B, E) copy of them exists. Steps are
packed (the idea of PyTorch's pack_padded_sequence; Khomenko et al. 2016,
arXiv:1708.05604, bucket by length for the same reason): with the rows
taken longest first, step k runs only the prefix of rows still inside
their length, so no step of a finished row is computed. The traced
forward pass projects every real word through W_x in one matrix product
before the recurrence, leaving one (b_k, H) x (H, 4H) product per step
(Appleyard et al. 2016, arXiv:1604.01946); a pass that keeps no trace
projects a block of whole steps at a time and keeps only the hidden
states, so its memory grows with the padded (n, B) states alone. The
backward pass is derived by hand: the recurrence writes the gate
pre-activation gradients dZ over the packed gate activations of the
trace, step by step, and the input gradients and every weight gradient
are matrix products of dZ after the loop; tanh(c) is recomputed rather
than stored. It is checked against finite differences and against the
per-gate loop it replaced in the tests.
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


def _packing(n: int, lengths: np.ndarray) -> dict:
    """Where each step's rows sit in the packed arrays of a chunk.

    Rows run longest first: order lists the chunk's columns that way, and
    step k runs the prefix order[:widths[k]], the rows still inside their
    own length. Packed row t is step steps[t] of column cols[t]; step k
    owns the packed rows starts[k] to starts[k] + widths[k].
    """
    order = np.argsort(-lengths, kind="stable")
    widths = np.count_nonzero(lengths[:, None] > np.arange(n), axis=0)
    steps, ranks = np.nonzero(np.arange(len(lengths)) < widths[:, None])
    return {"order": order, "widths": widths, "starts": np.cumsum(widths) - widths,
            "steps": steps, "cols": order[ranks]}


# rows of gate pre-activations a pass that keeps no trace projects at a time
BLOCK_ROWS = 128


def lstm_forward(params: LstmParams, ids: np.ndarray, table: np.ndarray, lengths=None,
                 keep_trace: bool = True):
    """Run the cell over a time-major chunk of word ids (n, B), whose
    vectors are the rows of table (vocabulary, input_dim).

    Row b runs its first lengths[b] steps (default: all n); its ids after
    that are never read, and its states there are exactly zero. Returns
    (hiddens, trace): hiddens is (n, B, hidden_dim); the trace holds what
    the backward pass needs, every per-step array packed. With keep_trace
    False the pass keeps only the hidden states: it projects the gates a
    block of whole steps (about BLOCK_ROWS packed rows) at a time, keeps
    no cell, and returns None for the trace.
    """
    n, batch = ids.shape
    dh = params.hidden_dim
    lengths = np.full(batch, n) if lengths is None else np.asarray(lengths)
    trace = _packing(n, lengths)
    order, widths, starts, steps, cols = (
        trace[key] for key in ("order", "widths", "starts", "steps", "cols"))
    # a traced pass projects every real word at once, into the gate array
    # its trace keeps; otherwise step k is projected with the block of
    # steps whose packed rows start in the same BLOCK_ROWS stretch
    blocks = starts // BLOCK_ROWS if not keep_trace else np.zeros(n, dtype=np.int64)
    hiddens = np.zeros((n, batch, dh))
    cells = np.empty((starts[-1] + widths[-1], dh)) if keep_trace else None

    h = c = np.zeros((batch, dh))
    for k in range(n):
        b, lo = widths[k], starts[k]
        if k == 0 or blocks[k] != blocks[k - 1]:
            # free the last block (z is a view of it) before the next exists
            words = gates = z = None
            last = np.searchsorted(blocks, blocks[k], side="right") - 1
            rows = slice(lo, starts[last] + widths[last])
            words = table[ids[steps[rows], cols[rows]]]
            gates = words @ params.W_x.T
            gates += params.b
            base = lo
        z = gates[lo - base:lo - base + b]
        if k:  # h is zero before the first step
            z += h[:b] @ params.W_h.T
        sigmoid(z[:, :3 * dh], out=z[:, :3 * dh])
        tanh(z[:, 3 * dh:], out=z[:, 3 * dh:])
        c = z[:, dh:2 * dh] * c[:b] + z[:, :dh] * z[:, 3 * dh:]
        if keep_trace:
            cells[lo:lo + b] = c
        h = z[:, 2 * dh:3 * dh] * tanh(c)
        hiddens[k, order[:b]] = h

    if not keep_trace:
        return hiddens, None
    trace.update(shape=(n, batch, params.input_dim), words=words, gates=gates, cells=cells,
                 hiddens=hiddens)
    for g, gate in enumerate(("i", "f", "o", "c_hat")):
        trace[gate] = gates[:, g * dh:(g + 1) * dh]
    return hiddens, trace


def lstm_backward(params: LstmParams, trace: dict, d_hiddens: np.ndarray, grads) -> np.ndarray:
    """Backpropagate d_hiddens (n, B, hidden_dim) through the whole chunk.

    Accumulates parameter gradients into `grads` (per-gate attribute
    access, += on matching shapes) and returns d_inputs (n, B, input_dim),
    zero past each row's length. The trace is consumed: the gate
    pre-activation gradients are written over its gate activations, step
    by step from the last.
    """
    order, widths, starts, steps, cols = (
        trace[key] for key in ("order", "widths", "starts", "steps", "cols"))
    cells = trace["cells"]
    dZ = trace["gates"]
    dh = params.hidden_dim

    # the gradients flowing back from step k + 1 cover its rows only, a
    # prefix of step k's
    dh_next = dc_next = np.zeros((0, dh))
    for k in reversed(range(len(widths))):
        b, lo = widths[k], starts[k]
        # each gate slot is read for the last time before its gradient
        # is written over it
        z = dZ[lo:lo + b]
        i_g, f_g, o_g, c_hat = (z[:, g * dh:(g + 1) * dh] for g in range(4))
        tanh_c = tanh(cells[lo:lo + b])
        dh_k = d_hiddens[k, order[:b]]
        dh_k[:len(dh_next)] += dh_next
        dc = dh_k * o_g * (1.0 - tanh_c**2)
        dc[:len(dc_next)] += dc_next
        d_i = dc * c_hat * i_g * (1.0 - i_g)
        c_hat[...] = dc * i_g * (1.0 - c_hat**2)
        i_g[...] = d_i
        o_g[...] = dh_k * tanh_c * o_g * (1.0 - o_g)
        dc_next = dc * f_g
        if k:
            prev = starts[k - 1]
            f_g[...] = dc * cells[prev:prev + b] * f_g * (1.0 - f_g)
            dh_next = z @ params.W_h
        else:  # c and h are zero before the first step
            f_g[...] = 0.0

    # step k's rows pair with their own states at step k - 1, so only the
    # packed rows after step 0 reach the W_h gradient
    first = widths[0]
    words = trace["words"]
    h_prevs = trace["hiddens"][steps[first:] - 1, cols[first:]]
    for g, gate in enumerate(GATES):
        dz_gate = dZ[:, g * dh:(g + 1) * dh]
        w_grad = getattr(grads, f"W{gate}_w")
        w_grad += dz_gate.T @ words
        h_grad = getattr(grads, f"W{gate}_h")
        h_grad += dz_gate[first:].T @ h_prevs
        b_grad = getattr(grads, f"b{gate}")
        b_grad += dz_gate.sum(axis=0)
    d_inputs = np.zeros(trace["shape"])
    d_inputs[steps, cols] = dZ @ params.W_x
    return d_inputs
