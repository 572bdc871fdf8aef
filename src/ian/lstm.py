"""Single-layer LSTM encoder over a sequence of word vectors.

Gates follow the standard formulation: input, forget and output gates are
sigmoids of affine maps of the current word and previous hidden state, the
candidate cell is a tanh of the same form, and

    c_k = f_k * c_{k-1} + i_k * chat_k
    h_k = o_k * tanh(c_k)

with h and c starting at zero.

The four gates are stored fused, in i, f, o, c order: a word matrix
W_x (4H x E), a hidden matrix W_h (4H x H) and a bias b (4H), where gate g
owns rows g*H to (g+1)*H.

Both passes run on time-major chunks: ids (n, B) hold B sequences of
word ids side by side, step k of all of them in ids[k], and each row has
its own length. Steps are packed (the idea of PyTorch's
pack_padded_sequence; Khomenko et al. 2016, arXiv:1708.05604, bucket by
length for the same reason): with the rows taken longest first, step k
runs only the prefix of rows still inside their length, and every array
of either pass holds one row per real token, step after step. The
forward pass reads the vectors of those tokens from the embedding table
by id and returns their states packed, with the table of the packed row
at each (step, column). The traced pass projects every real word through
W_x in one matrix product before the recurrence, leaving one (b_k, H) x
(H, 4H) product per step (Appleyard et al. 2016, arXiv:1604.01946); a
pass that keeps no trace projects blocks of whole steps and keeps only
the states. The backward pass is derived by hand: the recurrence writes
the gate pre-activation gradients dZ over the packed gate activations of
the trace, step by step, and every weight gradient and the word
gradients, added into the table's gradient by id, are matrix products of
dZ after the loop; the word vectors are read again from the table and
tanh(c) is recomputed rather than stored. It is checked against finite
differences and against the per-gate loop it replaced in the tests.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, sigmoid, tanh, uniform_init


class LstmParams:
    """Weights for one encoder: fused W_x, W_h and b, of dtype. Biases start
    at zero, weights at U(-0.1, 0.1)."""

    def __init__(self, rng: Rng, input_dim: int, hidden_dim: int, dtype=np.float64):
        self.hidden_dim = hidden_dim
        self.W_x = np.empty((4 * hidden_dim, input_dim), dtype)
        self.W_h = np.empty((4 * hidden_dim, hidden_dim), dtype)
        self.b = np.zeros(4 * hidden_dim, dtype)
        # each gate's word block, then its hidden block: a seed draws what it always has
        for lo in range(0, 4 * hidden_dim, hidden_dim):
            uniform_init(rng, self.W_x[lo:lo + hidden_dim])
            uniform_init(rng, self.W_h[lo:lo + hidden_dim])

    def named_arrays(self, prefix: str = ""):
        yield prefix + "W_x", self.W_x
        yield prefix + "W_h", self.W_h
        yield prefix + "b", self.b


def packing(ids: np.ndarray, lengths: np.ndarray) -> dict:
    """How a time-major chunk of ids (n, B) packs, column b over its first
    lengths[b] steps.

    Columns run longest first, and step k runs the first widths[k] of
    them, those still inside their own length, as the packed rows
    starts[k] to starts[k] + widths[k]. ids (tokens,) holds the id each
    packed row reads, and row_of (n, B) the packed row of each (step,
    column), -1 past the column's length.
    """
    n, batch = ids.shape
    order = np.argsort(-lengths, kind="stable")
    widths = np.count_nonzero(lengths[:, None] > np.arange(n), axis=0)
    steps, ranks = np.nonzero(np.arange(batch) < widths[:, None])
    row_of = np.full((n, batch), -1)
    row_of[steps, order[ranks]] = np.arange(len(steps))
    return {"ids": ids[steps, order[ranks]], "widths": widths,
            "starts": np.cumsum(widths) - widths, "row_of": row_of}


# rows of gate pre-activations a pass that keeps no trace projects at a time
BLOCK_ROWS = 128


def lstm_forward(params: LstmParams, ids: np.ndarray, table: np.ndarray,
                 lengths: np.ndarray, keep_trace: bool = True):
    """Run the cell over a time-major chunk of word ids (n, B), whose
    vectors are the rows of table (vocabulary, input_dim).

    Row b runs its first lengths[b] steps; its ids after that are never
    read. Returns (states, row_of, trace): states (tokens, hidden_dim)
    holds one packed row per real step, row_of (n, B) the packed row of
    each (step, column), -1 past the column's length, and the trace what
    the backward pass needs, every per-step array packed, all in the table's
    dtype. With keep_trace False the pass keeps only the states: it projects the
    gates in blocks of whole steps (at most BLOCK_ROWS packed rows, or one
    wider step), keeps one step's cells, and returns None for the trace.
    """
    n, batch = ids.shape
    dh = params.hidden_dim
    pack = packing(ids, lengths)
    word_ids, widths, starts = pack["ids"], pack["widths"], pack["starts"]
    ends = starts + widths
    states = np.empty((len(word_ids), dh), table.dtype)
    # a traced pass keeps every step's cells, packed; otherwise step k's
    # overwrite step k - 1's, row for row. Step 0, the widest, sizes the
    # buffer of each step's recurrent product, then of its cell temporaries
    cells = np.empty((len(word_ids) if keep_trace else batch, dh), table.dtype)
    recurrent = np.empty((batch, 4 * dh), table.dtype)
    scratch = recurrent[:, :dh]

    c = np.zeros((batch, dh), table.dtype)  # h and c are zero before the first step
    block_end = 0
    for k in range(n):
        b, lo = widths[k], starts[k]
        if k == block_end:
            # a traced pass projects every real word at once, into the gate
            # array its trace keeps; otherwise a block holds as many whole
            # steps as fit in BLOCK_ROWS packed rows, at least one
            gates = z = None  # free the last block (z is a view of it) before the next exists
            block_end = n if keep_trace else max(
                np.searchsorted(ends, lo + BLOCK_ROWS, side="right"), k + 1)
            gates = table[word_ids[lo:ends[block_end - 1]]] @ params.W_x.T
            gates += params.b
            base = lo
        z = gates[lo - base:lo - base + b]
        if k:
            prev = starts[k - 1]
            np.matmul(states[prev:prev + b], params.W_h.T, out=recurrent[:b])
            z += recurrent[:b]
        sigmoid(z[:, :3 * dh], out=z[:, :3 * dh])
        tanh(z[:, 3 * dh:], out=z[:, 3 * dh:])
        c = np.multiply(z[:, dh:2 * dh], c[:b], out=cells[lo:lo + b] if keep_trace else cells[:b])
        c += np.multiply(z[:, :dh], z[:, 3 * dh:], out=scratch[:b])
        np.multiply(z[:, 2 * dh:3 * dh], tanh(c, out=scratch[:b]), out=states[lo:lo + b])

    if not keep_trace:
        return states, pack["row_of"], None
    trace = dict(widths=widths, starts=starts, ids=word_ids, table=table, gates=gates,
                 cells=cells, states=states)
    return states, pack["row_of"], trace


def lstm_backward(params: LstmParams, trace: dict, d_states: np.ndarray, grads,
                  d_table: np.ndarray):
    """Backpropagate d_states (tokens, hidden_dim), one gradient per packed
    row of the trace's states, through the whole chunk.

    Accumulates parameter gradients into `grads` (its W_x, W_h and b, in
    place) and the gradient of the word each packed row read into that
    word's row of d_table, a gradient of the embedding table. The trace
    is consumed: the gate pre-activation gradients are written over its
    gate activations, step by step from the last.
    """
    widths, starts, cells = trace["widths"], trace["starts"], trace.pop("cells")
    dZ = trace["gates"]
    dh = params.hidden_dim

    # the gradients flowing back from step k + 1 cover its rows only, a
    # prefix of step k's
    dh_next = dc_next = np.zeros((0, dh), dZ.dtype)
    for k in reversed(range(len(widths))):
        b, lo = widths[k], starts[k]
        # each gate slot is read for the last time before its gradient
        # is written over it
        z = dZ[lo:lo + b]
        i_g, f_g, o_g, c_hat = (z[:, g * dh:(g + 1) * dh] for g in range(4))
        tanh_c = tanh(cells[lo:lo + b])
        dh_k = d_states[lo:lo + b].copy()
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
    del cells, tanh_c

    # the word vectors are read again from the table, by id; packed row t
    # after step 0 pairs with row t - widths[k - 1], its column's state at
    # step k - 1, so only those rows reach the W_h gradient
    words = trace["table"][trace["ids"]]
    first = widths[0]
    h_prevs = trace["states"][np.arange(first, len(dZ)) - np.repeat(widths[:-1], widths[1:])]
    # one gate's row block at a time: a whole (4H, E) product lifts the traced peak
    for lo in range(0, 4 * dh, dh):
        dz_gate = dZ[:, lo:lo + dh]
        grads.W_x[lo:lo + dh] += dz_gate.T @ words
        grads.W_h[lo:lo + dh] += dz_gate[first:].T @ h_prevs
        grads.b[lo:lo + dh] += dz_gate.sum(axis=0)
    del words, h_prevs
    np.add.at(d_table, trace["ids"], dZ @ params.W_x)
