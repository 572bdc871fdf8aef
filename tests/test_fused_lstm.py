"""The fused-gate LSTM against the per-gate loop it replaced.

The loop lives in _loop_lstm.py. Fusing the gates changes the order of
floating-point sums (one GEMM over the stacked gates, bias added to the
word projection, weight gradients summed by GEMM over steps instead of
step by step), so results agree to rounding, not bit for bit. The
tolerances were set in advance, far above the largest drift seen while
the fused code was written (6.6e-17): probabilities and loss within 1e-12
absolute, every gradient array within rtol 1e-9 / atol 1e-13.
"""

import numpy as np
import pytest

import ian.model
from _loop_lstm import chunk_backward, chunk_forward, gate_blocks, reference_init
from _per_case import case

from ian.embeddings import PAD_INDEX, Vocabulary
from ian.lstm import LstmParams
from ian.model import LABELS, TRAINABLE, ModelParams, forward, load_checkpoint, save_checkpoint
from ian.numerics import Rng
from ian.training import GradSet, dropout_mask, loss_and_grads, momentum_step

VOCAB = Vocabulary([f"w{i}" for i in range(30)])
DIMS = [(300, 300), (7, 5), (50, 30)]
# (target tokens, trailing pads on the context, on the target, dropout, l2)
CASES = [(1, 2, 1, True, 1e-3), (3, 1, 2, True, 1e-3), (2, 0, 0, False, 0.0)]


def make_model(variant, tie, embed_dim, hidden_dim, seed):
    rng = Rng(seed)
    params = ModelParams(rng, VOCAB, variant=variant, embed_dim=embed_dim,
                         hidden_dim=hidden_dim, tie_attention=tie)
    for lstm in (params.ctx_lstm, params.tgt_lstm):
        if lstm is not None:  # biases start at zero; give them weight
            lstm.b[...] = rng.uniform(-0.1, 0.1, lstm.b.shape)
    return params


def make_case(rng, n_tgt, ctx_pads, tgt_pads):
    n_ctx = int(rng.integers(n_tgt + 1, 12))
    ctx = rng.integers(1, len(VOCAB), n_ctx)
    start = int(rng.integers(0, n_ctx - n_tgt + 1))
    span = (start, start + n_tgt)
    tgt = ctx[start:start + n_tgt]
    ctx = np.concatenate([ctx, [PAD_INDEX] * ctx_pads]).astype(np.int64)
    tgt = np.concatenate([tgt, [PAD_INDEX] * tgt_pads]).astype(np.int64)
    return ctx, tgt, span


def run_both(monkeypatch, params, ctx, tgt, span, label, l2, mask):
    cases = [case(ctx, tgt, span, label)]
    masks = None if mask is None else mask[None]
    fused_grads, loop_grads = GradSet(params), GradSet(params)
    fused = loss_and_grads(params, cases, l2=l2, drop_masks=masks, grads=fused_grads)
    probs, _ = forward(params, ctx, tgt, span=span, dropout_mask=mask)
    with monkeypatch.context() as m:
        m.setattr(ian.model, "lstm_forward", chunk_forward)
        m.setattr(ian.model, "lstm_backward", chunk_backward)
        loop = loss_and_grads(params, cases, l2=l2, drop_masks=masks, grads=loop_grads)
        loop_probs, _ = forward(params, ctx, tgt, span=span, dropout_mask=mask)
    return (probs, fused, fused_grads), (loop_probs, loop, loop_grads)


@pytest.mark.parametrize("embed_dim,hidden_dim", DIMS)
@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_fused_matches_loop_reference(monkeypatch, variant, tie, embed_dim, hidden_dim):
    params = make_model(variant, tie, embed_dim, hidden_dim, seed=embed_dim + hidden_dim)
    rng = Rng(7)
    for n_tgt, ctx_pads, tgt_pads, dropout, l2 in CASES:
        ctx, tgt, span = make_case(rng, n_tgt, ctx_pads, tgt_pads)
        label = int(rng.integers(0, len(LABELS)))
        mask = dropout_mask(rng, params.feature_dim(), 0.5) if dropout else None
        (probs, loss, grads), (ref_probs, ref_loss, ref_grads) = run_both(
            monkeypatch, params, ctx, tgt, span, label, l2, mask)
        case = (n_tgt, ctx_pads, tgt_pads, dropout, l2)
        assert np.max(np.abs(probs - ref_probs)) <= 1e-12, case
        assert abs(loss - ref_loss) <= 1e-12, case
        for name, arr in grads.named_arrays():
            assert np.allclose(arr, ref_grads[name], rtol=1e-9, atol=1e-13), (name, case)


@pytest.mark.parametrize("input_dim,hidden_dim", [(300, 300), (7, 5), (2, 9)])
def test_seed_gives_the_loop_era_parameters(input_dim, hidden_dim):
    for seed in range(3):
        rng, ref_rng = Rng(seed), Rng(seed)
        params = LstmParams(rng, input_dim, hidden_dim)
        ref = reference_init(ref_rng, input_dim, hidden_dim)
        for name, arr in gate_blocks(params).items():
            assert np.array_equal(arr, ref[name]), name
        # the stream continues identically for whatever is drawn next
        assert np.array_equal(rng.random(4), ref_rng.random(4))


def lstms(params):
    return [lstm for lstm in (params.ctx_lstm, params.tgt_lstm) if lstm is not None]


def test_checkpoint_round_trip_reaches_fused_storage(tmp_path):
    params = make_model("td_lstm", False, 6, 4, seed=3)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    for before, after in zip(lstms(params), lstms(loaded)):
        for name in ("W_x", "W_h", "b"):
            assert np.array_equal(getattr(before, name), getattr(after, name)), name


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_gradset_is_a_zero_twin_with_fused_storage(variant, tie):
    params = make_model(variant, tie, 6, 4, seed=8)
    grads = GradSet(params)
    assert isinstance(grads, ModelParams)
    assert [(name, arr.shape) for name, arr in grads.named_arrays()] == [
        (name, arr.shape) for name, arr in params.named_arrays()]
    assert not any(arr.any() for _, arr in grads.named_arrays())
    for part in ("ctx_lstm", "tgt_lstm", "ctx_attn", "tgt_attn"):
        assert (getattr(grads, part) is None) == (getattr(params, part) is None), part
    if tie:  # both attention backward calls accumulate into one object
        assert grads.tgt_attn is grads.ctx_attn
    rng = Rng(9)
    ctx, tgt, span = make_case(rng, 2, 1, 1)
    loss_and_grads(params, [case(ctx, tgt, span, 1)], l2=1e-3, grads=grads)
    for lstm in lstms(grads):
        assert lstm.W_x.any() and lstm.W_h.any() and lstm.b.any()


def test_momentum_step_reaches_fused_storage():
    params = make_model("ian", False, 6, 4, seed=4)
    before = [(lstm.W_x.copy(), lstm.W_h.copy(), lstm.b.copy()) for lstm in lstms(params)]
    grads, velocity = GradSet(params), GradSet(params)
    rng = Rng(5)
    for _, arr in grads.named_arrays():
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
    for (W_x, W_h, b), lstm, side in zip(before, lstms(params), ("ctx", "tgt")):
        for name, old in (("W_x", W_x), ("W_h", W_h), ("b", b)):
            step = grads[f"{side}_lstm.{name}"]
            assert np.array_equal(getattr(lstm, name), old - 0.1 * step), name


# td_lstm is left out: a trailing context pad is the first word its
# right-to-left LSTM reads, so padding changes its output by design
@pytest.mark.parametrize("variant,tie", [vt for vt in TRAINABLE if vt[0] != "td_lstm"])
def test_padding_invariance_at_paper_dims(variant, tie):
    params = make_model(variant, tie, 300, 300, seed=12)
    rng = Rng(13)
    for n_tgt in (1, 1, 2, 4):
        ctx, tgt, _ = make_case(rng, n_tgt, 0, 0)
        base, _ = forward(params, ctx, tgt)
        for ctx_pads, tgt_pads in ((2, 0), (0, 1), (3, 2)):
            padded, _ = forward(params, np.concatenate([ctx, [PAD_INDEX] * ctx_pads]),
                                np.concatenate([tgt, [PAD_INDEX] * tgt_pads]))
            assert np.max(np.abs(padded - base)) <= 1e-12, (n_tgt, ctx_pads, tgt_pads)
