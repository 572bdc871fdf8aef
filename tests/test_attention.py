import math
import types

import numpy as np

from fdcheck import fd_grad, max_rel_err
from ian.attention import AttentionParams, attend, attention_backward, pool_matrix
from ian.numerics import Rng


def pool(params, states, rows, query):
    """attend, then pool through its matrix: (pooled, weights, trace)."""
    weights, trace = attend(params, states, rows, query)
    return pool_matrix(rows, weights, len(states)).T @ states, weights, trace


def pool_backward(params, trace, d_pooled, grads):
    """attention_backward plus the weighted sum's share of d_states."""
    d_states, d_query = attention_backward(params, trace, d_pooled, grads)
    d_states += pool_matrix(trace["rows"], trace["weights"], len(d_states)) @ d_pooled
    return d_states, d_query


def attend_one(params, hiddens, query, mask):
    """pool on a chunk of one sequence, its states packed in order,
    outputs without the batch axis."""
    rows = np.where(mask, np.arange(len(hiddens)), -1)[:, None]
    pooled, weights, trace = pool(params, hiddens, rows, query[None])
    return pooled[0], weights[:, 0], trace


def backward_one(params, trace, d_pooled, grads):
    d_hiddens, d_query = pool_backward(params, trace, d_pooled[None], grads)
    return d_hiddens, d_query[0]


def pack_columns(h, lengths):
    """The rows of padded states h (n, G, H) inside each column's length,
    packed column after column: (states, row_of)."""
    row_of = np.full(h.shape[:2], -1)
    inside = np.arange(len(h))[:, None] < lengths
    row_of.T[inside.T] = np.arange(inside.sum())
    return h.transpose(1, 0, 2)[inside.T], row_of


def zero_grads(params):
    return types.SimpleNamespace(
        **{name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    )


def test_param_shapes_and_bias_scalar():
    p = AttentionParams(Rng(0), hidden_dim=4, query_dim=6)
    assert p.W_a.shape == (4, 6)
    assert p.b_a.shape == ()
    assert float(p.b_a) == 0.0


def test_weights_sum_to_one():
    rng = Rng(2)
    p = AttentionParams(rng, 3, 3)
    for _ in range(20):
        h = rng.uniform(-1, 1, (6, 3))
        q = rng.uniform(-1, 1, 3)
        mask = rng.random(6) > 0.3
        if not mask.any():
            mask[0] = True
        _, weights, _ = attend_one(p, h, q, mask)
        assert abs(weights.sum() - 1.0) < 1e-10


def test_zero_scores_give_uniform_weights():
    p = AttentionParams(Rng(0), 3, 3)
    p.W_a[:] = 0.0
    h = np.ones((4, 3))
    _, weights, _ = attend_one(p, h, np.ones(3), np.ones(4, dtype=bool))
    assert np.allclose(weights, 0.25, atol=1e-12)


def test_masked_positions_get_exactly_zero_weight():
    rng = Rng(5)
    p = AttentionParams(rng, 3, 3)
    h = rng.uniform(-1, 1, (5, 3))
    q = rng.uniform(-1, 1, 3)
    mask = np.array([True, False, True, False, True])
    pooled, weights, _ = attend_one(p, h, q, mask)
    assert weights[1] == 0.0 and weights[3] == 0.0
    # pooled must equal pooling only the surviving rows
    keep = attend_one(p, h[mask], q, np.ones(3, dtype=bool))[0]
    assert np.allclose(pooled, keep, atol=1e-15)


def test_two_position_hand_case():
    p = AttentionParams(Rng(0), 1, 1)
    p.W_a[:] = 2.0
    p.b_a[...] = 0.5
    h = np.array([[1.0], [-0.5]])
    q = np.array([0.25])
    # scores: tanh(1*2*0.25 + 0.5) = tanh(1.0); tanh(-0.5*2*0.25 + 0.5) = tanh(0.25)
    s1, s2 = math.tanh(1.0), math.tanh(0.25)
    e1, e2 = math.exp(s1), math.exp(s2)
    w1 = e1 / (e1 + e2)
    pooled, weights, _ = attend_one(p, h, q, np.ones(2, dtype=bool))
    assert abs(weights[0] - w1) < 1e-12
    assert abs(pooled[0] - (w1 * 1.0 + (1 - w1) * -0.5)) < 1e-12


def test_backward_matches_finite_differences():
    rng = Rng(17)
    p = AttentionParams(rng, 4, 3)  # rectangular on purpose
    h = rng.uniform(-1, 1, (6, 4))
    q = rng.uniform(-1, 1, 3)
    mask = np.array([True, True, False, True, True, False])
    r = rng.uniform(-1, 1, 4)

    def objective():
        pooled, _, _ = attend_one(p, h, q, mask)
        return float(pooled @ r)

    _, _, trace = attend_one(p, h, q, mask)
    grads = zero_grads(p)
    d_hiddens, d_query = backward_one(p, trace, r.copy(), grads)

    assert max_rel_err(grads.W_a, fd_grad(objective, p.W_a)) < 1e-5
    assert max_rel_err(grads.b_a, fd_grad(objective, p.b_a)) < 1e-5
    assert max_rel_err(d_hiddens, fd_grad(objective, h)) < 1e-5
    assert max_rel_err(d_query, fd_grad(objective, q)) < 1e-5


def test_masked_rows_receive_zero_gradient():
    rng = Rng(19)
    p = AttentionParams(rng, 3, 3)
    h = rng.uniform(-1, 1, (4, 3))
    q = rng.uniform(-1, 1, 3)
    mask = np.array([True, False, True, False])
    _, _, trace = attend_one(p, h, q, mask)
    d_hiddens, _ = backward_one(p, trace, rng.uniform(-1, 1, 3), zero_grads(p))
    assert np.array_equal(d_hiddens[1], np.zeros(3))
    assert np.array_equal(d_hiddens[3], np.zeros(3))


def test_shared_columns_equal_their_copies():
    # rows that share a column read it in place; backward sums their state
    # gradients onto it. The same rows on a copy, one column each, agree
    rng = Rng(23)
    p = AttentionParams(rng, 4, 3)
    lengths = np.array([5, 2, 4])
    gather = np.array([0, 0, 1, 2, 2, 2])
    mask = np.arange(5)[:, None] < lengths
    mask[1, 2] = False  # a pad inside the third column's length
    h = rng.uniform(-1, 1, (5, 3, 4))
    q = rng.uniform(-1, 1, (len(gather), 3))
    d_pooled = rng.uniform(-1, 1, (len(gather), 4))
    states, row_of = pack_columns(h, lengths)
    copies, copy_rows = pack_columns(h[:, gather], lengths[gather])

    shared, copied = zero_grads(p), zero_grads(p)
    pooled, weights, trace = pool(p, states, np.where(mask, row_of, -1)[:, gather], q)
    d_h, d_q = pool_backward(p, trace, d_pooled, shared)
    copied_rows = np.where(mask[:, gather], copy_rows, -1)
    ref_pooled, ref_weights, ref_trace = pool(p, copies, copied_rows, q)
    ref_d_h, ref_d_q = pool_backward(p, ref_trace, d_pooled, copied)
    # each copied row's gradient summed onto the packed row it copies
    summed = np.zeros_like(states)
    inside = copy_rows >= 0
    np.add.at(summed, row_of[:, gather][inside], ref_d_h[copy_rows[inside]])

    assert d_h.shape == states.shape
    for got, ref in ((pooled, ref_pooled), (weights, ref_weights), (d_q, ref_d_q),
                     (shared.W_a, copied.W_a), (shared.b_a, copied.b_a), (d_h, summed)):
        assert np.max(np.abs(got - ref)) <= 1e-12
