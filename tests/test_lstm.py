import math
import types

import numpy as np

import ian.lstm
from _loop_lstm import gate_blocks
from fdcheck import fd_grad, max_rel_err
from ian.lstm import LstmParams, lstm_backward, lstm_forward
from ian.numerics import Rng


def on_vectors(params, x, lengths=None):
    """lstm_forward over word vectors x (n, B, E): each position reads its
    own row of a table that holds x, so x stays the input to perturb.
    Returns (hiddens (n, B, H), zero past each row's end; row_of; trace)."""
    n, batch, dim = x.shape
    lengths = np.full(batch, n) if lengths is None else lengths
    states, row_of, trace = lstm_forward(params, np.arange(n * batch).reshape(n, batch),
                                         x.reshape(-1, dim), lengths)
    return unpack(states, row_of), row_of, trace


def unpack(states, row_of):
    """Packed rows (tokens, D) laid out as (n, B, D), zero where row_of is -1."""
    out = np.zeros((*row_of.shape, states.shape[1]))
    out[row_of >= 0] = states[row_of[row_of >= 0]]
    return out


def backward_on_vectors(params, row_of, trace, d_hiddens, grads):
    """lstm_backward of a pass run by on_vectors, given d_hiddens (n, B, H)
    laid out as its hiddens; returns the input gradient (n, B, E): row
    (k, b) of the table's gradient, since position (k, b) reads that row
    alone."""
    d_states = np.empty((np.count_nonzero(row_of >= 0), d_hiddens.shape[2]))
    d_states[row_of[row_of >= 0]] = d_hiddens[row_of >= 0]
    d_table = np.zeros((row_of.size, params.W_x.shape[1]))
    lstm_backward(params, trace, d_states, grads, d_table)
    return d_table.reshape(*row_of.shape, -1)


def zero_grads(params):
    return types.SimpleNamespace(
        **{name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    )


def test_param_shapes_and_bias_init():
    p = LstmParams(Rng(0), input_dim=5, hidden_dim=3)
    assert p.W_x.shape == (12, 5) and p.W_h.shape == (12, 3)
    assert np.array_equal(p.b, np.zeros(12))
    for m in (p.W_x, p.W_h):
        assert np.all(m >= -0.1) and np.all(m < 0.1)


def test_init_deterministic():
    a = LstmParams(Rng(4), 3, 3)
    b = LstmParams(Rng(4), 3, 3)
    for (na, xa), (nb, xb) in zip(a.named_arrays(), b.named_arrays()):
        assert na == nb and np.array_equal(xa, xb)


def test_zero_weights_give_zero_hiddens():
    p = LstmParams(Rng(0), 2, 3)
    p.W_x[:] = 0.0
    p.W_h[:] = 0.0
    hiddens, _, trace = on_vectors(p, np.ones((4, 1, 2)))
    # gates sit at 0.5 but the candidate cell is tanh(0) = 0
    assert np.array_equal(hiddens, np.zeros((4, 1, 3)))
    assert np.allclose(trace["gates"][:, :3], 0.5)  # the i gate


def test_single_step_against_scalar_reference():
    # 1-dim everything, computed with plain math calls
    p = LstmParams(Rng(0), 1, 1)
    g = gate_blocks(p)
    g["Wi_w"][:] = 0.4; g["Wi_h"][:] = -0.2; g["bi"][:] = 0.1
    g["Wf_w"][:] = -0.3; g["Wf_h"][:] = 0.5; g["bf"][:] = -0.1
    g["Wo_w"][:] = 0.2; g["Wo_h"][:] = 0.3; g["bo"][:] = 0.0
    g["Wc_w"][:] = 0.7; g["Wc_h"][:] = -0.6; g["bc"][:] = 0.2
    w = 0.9

    def sig(x):
        return 1.0 / (1.0 + math.exp(-x))

    i = sig(0.4 * w + 0.1)
    f = sig(-0.3 * w - 0.1)
    o = sig(0.2 * w)
    chat = math.tanh(0.7 * w + 0.2)
    c = i * chat  # c_prev = 0
    h = o * math.tanh(c)

    hiddens, _, _ = on_vectors(p, np.array([[[w]]]))
    assert abs(hiddens[0, 0, 0] - h) < 1e-12


def test_second_step_uses_first_hidden():
    rng = Rng(8)
    p = LstmParams(rng, 2, 3)
    x = rng.uniform(-1, 1, (2, 2))[:, None]
    full, _, _ = on_vectors(p, x)
    # second step must differ from running it with zeroed history
    fresh, _, _ = on_vectors(p, x[1:])
    assert not np.allclose(full[1], fresh[0])


def test_hiddens_bounded_by_one():
    rng = Rng(12)
    p = LstmParams(rng, 3, 4)
    x = rng.uniform(-50, 50, (10, 3))[:, None]
    hiddens, _, _ = on_vectors(p, x)
    assert np.all(np.abs(hiddens) <= 1.0)


def test_backward_matches_finite_differences():
    rng = Rng(21)
    p = LstmParams(rng, 3, 4)
    x = rng.uniform(-1, 1, (5, 3))[:, None]
    r = rng.uniform(-1, 1, (5, 4))[:, None]  # fixed projection making J scalar

    def objective():
        hiddens, _, _ = on_vectors(p, x)
        return float(np.sum(hiddens * r))

    hiddens, row_of, trace = on_vectors(p, x)
    grads = zero_grads(p)
    d_inputs = backward_on_vectors(p, row_of, trace, r.copy(), grads)

    for name, arr in p.named_arrays():
        numeric = fd_grad(objective, arr)
        assert max_rel_err(getattr(grads, name), numeric) < 1e-5, name
    assert max_rel_err(d_inputs, fd_grad(objective, x)) < 1e-5


def test_backward_reaches_first_input_from_last_step_only():
    rng = Rng(30)
    p = LstmParams(rng, 2, 3)
    x = rng.uniform(-1, 1, (4, 2))[:, None]
    _, row_of, trace = on_vectors(p, x)
    d_hiddens = np.zeros((4, 1, 3))
    d_hiddens[-1] = 1.0
    d_inputs = backward_on_vectors(p, row_of, trace, d_hiddens, zero_grads(p))
    assert np.any(d_inputs[0] != 0.0)


def test_backward_accumulates_into_existing_grads():
    rng = Rng(33)
    p = LstmParams(rng, 2, 2)
    x = rng.uniform(-1, 1, (3, 2))[:, None]
    d = rng.uniform(-1, 1, (3, 2))[:, None]
    once = zero_grads(p)
    backward_on_vectors(p, *on_vectors(p, x)[1:], d, once)
    twice = zero_grads(p)
    # the backward pass consumes its trace, so each call gets a fresh one
    backward_on_vectors(p, *on_vectors(p, x)[1:], d, twice)
    backward_on_vectors(p, *on_vectors(p, x)[1:], d, twice)
    assert np.allclose(twice.W_x, 2.0 * once.W_x)
    assert np.allclose(twice.b, 2.0 * once.b)


def test_packed_rows_equal_each_row_run_alone():
    rng = Rng(40)
    p = LstmParams(rng, 5, 4)
    p.b[...] = rng.uniform(-0.1, 0.1, p.b.shape)
    lengths = np.array([7, 1, 60])  # not longest first: the pass orders the rows itself
    x = rng.uniform(-1, 1, (60, 3, 5))
    d = rng.uniform(-1, 1, (60, 3, 4))
    packed = zero_grads(p)
    hiddens, row_of, trace = on_vectors(p, x, lengths)
    d_inputs = backward_on_vectors(p, row_of, trace, d, packed)
    alone = zero_grads(p)
    # step-major, longest row first: the packed row of (k, b) is the
    # count of rows that come before it
    assert np.array_equal(row_of[:3], [[1, 2, 0], [4, -1, 3], [6, -1, 5]])
    assert np.array_equal(row_of >= 0, np.arange(60)[:, None] < lengths)
    assert np.array_equal(np.sort(row_of[row_of >= 0]), np.arange(sum(lengths)))
    for b, n in enumerate(lengths):
        h, r, t = on_vectors(p, x[:n, b:b + 1])
        assert np.max(np.abs(hiddens[:n, b] - h[:, 0])) <= 1e-12
        assert not hiddens[n:, b].any()
        d_x = backward_on_vectors(p, r, t, d[:n, b:b + 1], alone)
        assert np.max(np.abs(d_inputs[:n, b] - d_x[:, 0])) <= 1e-12
        assert not d_inputs[n:, b].any()
    for name, _ in p.named_arrays():
        assert np.max(np.abs(getattr(packed, name) - getattr(alone, name))) <= 1e-12, name


def test_no_trace_pass_reads_ids_and_equals_the_traced_one(monkeypatch):
    rng = Rng(41)
    p = LstmParams(rng, 5, 4)
    p.b[...] = rng.uniform(-0.1, 0.1, p.b.shape)
    lengths = np.array([7, 1, 60, 33])
    table = rng.uniform(-1, 1, (20, 5))
    ids = rng.integers(0, 20, (60, 4))
    vectors, _, _ = on_vectors(p, table[ids], lengths)
    states, row_of, trace = lstm_forward(p, ids, table, lengths)
    # the traced pass reads the same packed words from either table
    assert np.array_equal(unpack(states, row_of), vectors)
    assert states.shape == (sum(lengths), 4) and trace["ids"].shape == (sum(lengths),)
    monkeypatch.setattr(ian.lstm, "BLOCK_ROWS", 10)  # blocks of whole steps, 1 to 4 rows each
    bare, bare_rows, none = lstm_forward(p, ids, table, lengths, keep_trace=False)
    assert none is None
    assert np.array_equal(bare_rows, row_of)
    assert np.max(np.abs(bare - states)) <= 1e-12
