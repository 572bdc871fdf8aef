import numpy as np
import pytest

from _oracles import oracle_cross_entropy, oracle_probs
from _per_case import case
from fdcheck import fd_grad, grads_close, max_rel_err
from ian.embeddings import PAD_INDEX, Vocabulary
from ian.model import TRAINABLE, ModelParams, forward
from ian.numerics import Rng
from ian.training import (
    GradSet,
    TrainConfig,
    cross_entropy,
    dropout_mask,
    fit_majority,
    loss_and_grads,
    momentum_step,
    train,
)
from synth import synthetic_separable


def tiny_model(variant="ian", seed=0, de=3, dh=3, tie=False, vocab_size=8):
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size)])
    return ModelParams(Rng(seed), vocab, variant=variant,
                       embed_dim=de, hidden_dim=dh, tie_attention=tie)


def tiny_instance(rng, vocab_size=8, n=5, m=2):
    ctx = rng.integers(1, vocab_size + 1, n)
    start = int(rng.integers(0, n - m + 1))
    tgt = ctx[start:start + m]
    label = int(rng.integers(0, 3))
    return ctx, tgt, (start, start + m), label


def check_all_grads(params, ctx, tgt, span, label, l2=0.0, mask=None, tol=1e-4):
    cases = [case(ctx, tgt, span, label)]
    masks = None if mask is None else mask[None]
    grads = GradSet(params)
    loss = loss_and_grads(params, cases, l2=l2, drop_masks=masks, grads=grads)

    def objective():
        return loss_and_grads(params, cases, l2=l2, drop_masks=masks)

    assert abs(loss - objective()) < 1e-12
    for name, arr in params.named_arrays():
        numeric = fd_grad(objective, arr)
        ok = grads_close(grads[name], numeric, rel_tol=tol)
        assert ok, (
            f"{params.variant}:{name} rel err {max_rel_err(grads[name], numeric)}"
        )


@pytest.mark.parametrize("variant", [
    "ian", "no_target", "no_interaction", "target2content", "lstm_avg", "td_lstm",
])
def test_backward_matches_finite_differences(variant):
    rng = Rng(101)
    de = 4 if variant == "no_target" else 3  # rectangular score matrix too
    params = tiny_model(variant, seed=7, de=de, dh=3)
    ctx, tgt, span, label = tiny_instance(rng)
    check_all_grads(params, ctx, tgt, span, label, l2=0.02)


def test_backward_matches_finite_differences_without_l2():
    # no decay lift here, so near-zero entries lean on the absolute bound
    params = tiny_model("ian", seed=7)
    ctx, tgt, span, label = tiny_instance(Rng(101), n=4, m=2)
    check_all_grads(params, ctx, tgt, span, label, l2=0.0)


def test_classifier_preactivation_gradient_shortcut():
    # with W_l and b_l zeroed, x = 0, probs = 1/3 each; the softmax plus
    # cross-entropy gradient at the preactivation is probs - onehot(gold)
    params = tiny_model("ian", seed=41)
    params.W_l[...] = 0.0
    params.b_l[...] = 0.0
    ctx, tgt, span, _ = tiny_instance(Rng(42))
    grads = GradSet(params)
    loss_and_grads(params, [case(ctx, tgt, span, 1)], grads=grads)
    assert np.allclose(grads["b_l"], [1 / 3, -2 / 3, 1 / 3], atol=1e-15)


def test_backward_with_tied_attention():
    params = tiny_model("ian", seed=9, tie=True)
    ctx, tgt, span, label = tiny_instance(Rng(55))
    check_all_grads(params, ctx, tgt, span, label, l2=0.01)


def test_backward_under_fixed_dropout_mask():
    params = tiny_model("ian", seed=11)
    ctx, tgt, span, label = tiny_instance(Rng(66))
    mask = dropout_mask(Rng(3), params.feature_dim(), 0.5)
    assert mask is not None
    check_all_grads(params, ctx, tgt, span, label, l2=0.01, mask=mask)


def test_backward_with_padded_instance():
    params = tiny_model("ian", seed=13)
    ctx = np.array([3, 5, 2, PAD_INDEX, PAD_INDEX])
    tgt = np.array([5, PAD_INDEX])
    check_all_grads(params, ctx, tgt, (1, 2), 2)


def test_pad_row_gradient_is_exactly_zero():
    params = tiny_model("ian", seed=13)
    ctx = np.array([3, 5, 2, PAD_INDEX])
    tgt = np.array([5, PAD_INDEX])
    grads = GradSet(params)
    loss_and_grads(params, [case(ctx, tgt, (1, 2), 0)], l2=0.05, grads=grads)
    assert np.array_equal(grads.embeddings[PAD_INDEX], np.zeros(params.embed_dim))


def test_untouched_embedding_rows_get_zero_gradient():
    params = tiny_model("ian", seed=15, vocab_size=8)
    ctx = np.array([1, 2, 3])
    tgt = np.array([2])
    grads = GradSet(params)
    loss_and_grads(params, [case(ctx, tgt, (1, 2), 1)], l2=0.05, grads=grads)
    for row in (4, 5, 6, 7, 8):
        assert np.array_equal(grads.embeddings[row], np.zeros(params.embed_dim)), row
    for row in (1, 2, 3):
        assert np.any(grads.embeddings[row] != 0.0)


def test_cross_entropy_matches_reference():
    params = tiny_model("ian", seed=17)
    ctx, tgt, span, label = tiny_instance(Rng(77))
    probs, _ = forward(params, ctx, tgt)
    ours = cross_entropy(probs, np.array([label]))
    ref = oracle_cross_entropy(oracle_probs(params, ctx, tgt), label)
    assert abs(ours - ref) < 1e-10


def test_l2_zero_leaves_loss_as_plain_cross_entropy():
    params = tiny_model("ian", seed=19)
    ctx, tgt, span, label = tiny_instance(Rng(88))
    probs, _ = forward(params, ctx, tgt)
    cases = [case(ctx, tgt, span, label)]
    assert loss_and_grads(params, cases, l2=0.0) == cross_entropy(probs, np.array([label]))
    assert loss_and_grads(params, cases, l2=0.1) > cross_entropy(probs, np.array([label]))


@pytest.mark.parametrize("variant", ["ian", "no_target", "td_lstm"])
def test_l2_term_pays_each_cases_distinct_non_pad_rows(variant):
    params = tiny_model(variant, seed=23)
    params.embeddings[PAD_INDEX] = 0.5  # so a penalized pad row would show
    cases = [
        case([1, 2, 3, 2], [2, 3], (1, 3), 0),  # target words also in the context
        case([1, 2, 3, 2], [1], (0, 1), 1),  # shares the first case's context
        case([4, 5, 6, PAD_INDEX], [5, PAD_INDEX], (1, 2), 2),  # holds a pad
    ]
    # rows each case reads, once per case: 1, 2 and 3 twice, 4, 5 and 6 once
    counts = {1: 2, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}
    l2 = 0.03
    named = dict(params.named_arrays())
    decayed = [name for name, arr in named.items() if arr.ndim == 2 and name != "embeddings"]
    weights = sum(float(np.sum(named[name] ** 2)) for name in decayed)
    rows = sum(k * float(np.sum(params.embeddings[r] ** 2)) for r, k in counts.items())
    penalty = loss_and_grads(params, cases, l2=l2) - loss_and_grads(params, cases, l2=0.0)
    assert penalty == pytest.approx(l2 * (len(cases) * weights + rows), rel=1e-12)

    with_l2, without = GradSet(params), GradSet(params)
    loss_and_grads(params, cases, l2=l2, grads=with_l2)
    loss_and_grads(params, cases, l2=0.0, grads=without)
    expected = np.zeros_like(params.embeddings)
    for r, k in counts.items():
        expected[r] = 2.0 * l2 * k * params.embeddings[r]
    assert np.allclose(with_l2.embeddings - without.embeddings, expected, rtol=0, atol=1e-14)
    for name in decayed:
        assert np.allclose(with_l2[name] - without[name], 2.0 * l2 * len(cases) * named[name],
                           rtol=0, atol=1e-14), name


@pytest.mark.parametrize("variant,tie", [("ian", False), ("ian", True), ("no_target", False),
                                         ("td_lstm", False)])
def test_l2_gradient_decays_every_weight_map_and_no_bias(monkeypatch, variant, tie):
    # with the data gradient switched off, grads hold the L2 term alone
    import ian.training as training_module

    monkeypatch.setattr(training_module, "backward", lambda *args: None)
    params = tiny_model(variant, seed=43, tie=tie)
    named = dict(params.named_arrays())
    maps = [name for name, arr in named.items() if arr.ndim == 2 and name != "embeddings"]
    biases = [name for name, arr in named.items() if arr.ndim < 2]
    assert {"W_l", "ctx_lstm.W_x", "ctx_lstm.W_h"} <= set(maps)
    assert {"b_l", "ctx_lstm.b"} <= set(biases)
    for name in biases:
        named[name][...] = 0.5  # so a decayed bias would show
    rng = Rng(44)
    cases = [case(*tiny_instance(rng)) for _ in range(3)]
    l2 = 0.02
    grads = GradSet(params)
    loss_and_grads(params, cases, l2=l2, grads=grads)
    for name in maps:
        assert np.array_equal(grads[name], (2.0 * l2 * len(cases)) * named[name]), name
    for name in biases:
        assert not grads[name].any(), name


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_loss_without_a_gradset_runs_no_backward_and_equals_the_loss_with_one(
        monkeypatch, variant, tie):
    import ian.training as training_module

    params = tiny_model(variant, seed=45, tie=tie)
    rng = Rng(46)
    cases = [case(*tiny_instance(rng, n=n)) for n in (3, 5, 4)]
    masks = dropout_mask(Rng(47), (len(cases), params.feature_dim()), 0.5)
    with_grads = loss_and_grads(params, cases, l2=0.01, drop_masks=masks,
                                grads=GradSet(params), chunk_rows=16)

    def no_backward(*args):
        raise AssertionError("backward ran without a GradSet")

    monkeypatch.setattr(training_module, "backward", no_backward)
    alone = loss_and_grads(params, cases, l2=0.01, drop_masks=masks, chunk_rows=16)
    assert type(alone) is float
    assert alone == with_grads


def test_dropout_mask_values_and_determinism():
    mask = dropout_mask(Rng(5), 1000, 0.5)
    assert set(np.unique(mask)).issubset({0.0, 2.0})
    assert 300 < np.count_nonzero(mask) < 700
    again = dropout_mask(Rng(5), 1000, 0.5)
    assert np.array_equal(mask, again)
    assert dropout_mask(Rng(5), 10, 0.0) is None


def test_dropout_mask_is_unbiased_scaling():
    mask = dropout_mask(Rng(9), 100_000, 0.5)
    assert abs(mask.mean() - 1.0) < 0.02


def test_grad_accumulation_sums_cases():
    params = tiny_model("ian", seed=21)
    rng = Rng(99)
    a = case(*tiny_instance(rng))
    b = case(*tiny_instance(rng))
    lone_a, lone_b = GradSet(params), GradSet(params)
    loss_and_grads(params, [a], grads=lone_a)
    loss_and_grads(params, [b], grads=lone_b)
    both = GradSet(params)
    loss_and_grads(params, [a], grads=both)
    loss_and_grads(params, [b], grads=both)
    for (name, got), (_, xa), (_, xb) in zip(both.named_arrays(), lone_a.named_arrays(),
                                             lone_b.named_arrays()):
        assert np.allclose(got, xa + xb, atol=1e-14), name


def test_gradset_zero():
    params = tiny_model("ian", seed=23)
    ctx, tgt, span, label = tiny_instance(Rng(111))
    grads = GradSet(params)
    loss_and_grads(params, [case(ctx, tgt, span, label)], grads=grads)
    grads.zero()
    assert all(np.all(arr == 0.0) for _, arr in grads.named_arrays())


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_gradset_reads_each_named_array_by_its_name(variant, tie):
    grads = GradSet(tiny_model(variant, tie=tie))
    named = list(grads.named_arrays())
    assert named and all(grads[name] is arr for name, arr in named)
    if tie:  # the tied name reads the one shared array
        assert grads["tgt_attn.W_a"] is grads["ctx_attn.W_a"]


def test_momentum_hand_case():
    params = tiny_model("lstm_avg", seed=25, de=2, dh=2)
    grads = GradSet(params)
    velocity = GradSet(params)
    for _, arr in grads.named_arrays():
        arr[...] = 1.0
    before = {name: arr.copy() for name, arr in params.named_arrays()}
    momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
    momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
    # v1 = 0.1, v2 = 0.9*0.1 + 0.1 = 0.19, total 0.29
    for name, arr in params.named_arrays():
        assert np.allclose(before[name] - arr, 0.29, atol=1e-12), name


def test_training_is_bit_deterministic():
    cfg = TrainConfig(epochs=3, learning_rate=0.05, momentum=0.9, l2=1e-4,
                      dropout=0.5, batch_size=4)
    results = []
    for _ in range(2):
        vocab, instances = synthetic_separable()
        rng = Rng(1234)
        params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
        train(params, instances, cfg, rng)
        results.append({name: arr.copy() for name, arr in params.named_arrays()})
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name]), name


def test_training_reduces_loss():
    vocab, instances = synthetic_separable()
    rng = Rng(7)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=16, hidden_dim=16)
    cfg = TrainConfig(epochs=60, learning_rate=2.0, momentum=0.9, l2=0.0,
                      dropout=0.0, batch_size=20, clip_norm=1.0)
    history = train(params, instances, cfg, rng)
    assert history[-1]["loss"] < history[0]["loss"]
    assert history[-1]["train_acc"] == 1.0


def test_single_instance_overfits_to_the_softmax_floor():
    # with x = tanh(.) the best reachable gold probability is
    # e / (e + 2/e), so cross-entropy bottoms out at log(1 + 2e^-2)
    floor = np.log(1.0 + 2.0 * np.exp(-2.0))
    vocab, instances = synthetic_separable()
    rng = Rng(3)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
    cfg = TrainConfig(epochs=400, learning_rate=1.0, momentum=0.9, l2=0.0,
                      dropout=0.0, batch_size=1, clip_norm=1.0)
    history = train(params, instances[:1], cfg, rng)
    losses = [h["loss"] for h in history]
    tail = losses[50:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert losses[-1] < 0.25
    assert losses[-1] - floor < 1e-3


def test_lr_zero_leaves_parameters_bit_identical():
    vocab, instances = synthetic_separable()
    rng = Rng(5)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
    before = {name: arr.copy() for name, arr in params.named_arrays()}
    cfg = TrainConfig(epochs=2, learning_rate=0.0, momentum=0.9, l2=1e-4,
                      dropout=0.5, batch_size=4)
    train(params, instances, cfg, rng)
    for name, arr in params.named_arrays():
        assert np.array_equal(arr, before[name]), name


def test_zero_momentum_reduces_to_plain_sgd():
    params = tiny_model("lstm_avg", seed=27, de=2, dh=2)
    grads = GradSet(params)
    velocity = GradSet(params)
    for _, arr in grads.named_arrays():
        arr[...] = 2.0
    before = {name: arr.copy() for name, arr in params.named_arrays()}
    momentum_step(params, grads, velocity, lr=0.25, momentum=0.0)
    for name, arr in params.named_arrays():
        assert np.allclose(before[name] - arr, 0.5, atol=1e-15), name


def test_untouched_weight_matrix_gets_exactly_the_penalty_gradient():
    # a one-token target makes its attention softmax constant, so the
    # score matrix receives no data gradient at all, only 2*l2*theta
    params = tiny_model("ian", seed=29)
    ctx = np.array([1, 2, 3, 4])
    tgt = np.array([2])
    l2 = 0.01
    grads = GradSet(params)
    loss_and_grads(params, [case(ctx, tgt, (1, 2), 0)], l2=l2, grads=grads)
    assert np.array_equal(grads["tgt_attn.W_a"], 2.0 * l2 * params.tgt_attn.W_a)


def test_l2_monotonically_shrinks_an_idle_parameter():
    # every target in the synthetic set is one token, so tgt_attn.W_a only
    # ever receives the decay gradient and must shrink each epoch
    vocab, instances = synthetic_separable()
    rng = Rng(31)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
    cfg = TrainConfig(epochs=1, learning_rate=0.1, momentum=0.9, l2=1e-3,
                      dropout=0.5, batch_size=4)
    norms = [float(np.linalg.norm(params.tgt_attn.W_a))]
    for _ in range(5):
        train(params, instances, cfg, rng)
        norms.append(float(np.linalg.norm(params.tgt_attn.W_a)))
    assert all(b < a for a, b in zip(norms, norms[1:])), norms


def test_freeze_embeddings_keeps_the_table_bit_identical():
    vocab, instances = synthetic_separable()
    rng = Rng(33)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
    table_before = params.embeddings.copy()
    w_l_before = params.W_l.copy()
    cfg = TrainConfig(epochs=3, learning_rate=0.1, momentum=0.9, l2=1e-4,
                      dropout=0.5, batch_size=4, freeze_embeddings=True)
    train(params, instances, cfg, rng)
    assert np.array_equal(params.embeddings, table_before)
    assert not np.array_equal(params.W_l, w_l_before)


def test_clip_norm_caps_the_update_size():
    vocab, instances = synthetic_separable()
    rng = Rng(35)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
    before = {name: arr.copy() for name, arr in params.named_arrays()}
    cfg = TrainConfig(epochs=1, learning_rate=1.0, momentum=0.0, l2=0.0,
                      dropout=0.0, batch_size=len(instances), clip_norm=1e-6,
                      shuffle=False)
    train(params, instances, cfg, rng)
    delta_sq = sum(
        float(np.sum((arr - before[name]) ** 2))
        for name, arr in params.named_arrays()
    )
    assert np.sqrt(delta_sq) <= 1e-6 + 1e-12


def test_nan_loss_aborts_with_diagnostics(monkeypatch):
    import ian.training as training_module

    def poisoned(*args, **kwargs):
        return float("nan")

    monkeypatch.setattr(training_module, "loss_and_grads", poisoned)
    vocab, instances = synthetic_separable()
    rng = Rng(37)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=4, hidden_dim=4)
    with pytest.raises(FloatingPointError, match="epoch 1"):
        train(params, instances, TrainConfig(epochs=1), rng)


def test_nan_abort_names_the_first_non_finite_parameter():
    vocab, instances = synthetic_separable()
    rng = Rng(37)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=4, hidden_dim=4)
    params.ctx_lstm.W_x[1, 2] = np.nan
    with pytest.raises(FloatingPointError,
                       match=r"epoch 1, batch 1; first non-finite parameter: ctx_lstm\.W_x$"):
        train(params, instances, TrainConfig(epochs=1), rng)


def test_nan_abort_names_the_first_non_finite_gradient(monkeypatch):
    import ian.training as training_module

    def poisoned(params, cases, grads=None, **kwargs):
        grads["tgt_attn.W_a"][0, 0] = np.inf
        grads["W_l"][0, 0] = np.nan
        return float("nan")

    monkeypatch.setattr(training_module, "loss_and_grads", poisoned)
    vocab, instances = synthetic_separable()
    rng = Rng(37)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=4, hidden_dim=4)
    with pytest.raises(FloatingPointError, match=r"first non-finite gradient: tgt_attn\.W_a$"):
        train(params, instances, TrainConfig(epochs=1), rng)


def test_cross_entropy_clamps_vanished_gold_probability():
    with pytest.warns(UserWarning):
        value = cross_entropy(np.array([[1.0, 0.0, 0.0]]), np.array([1]))
    assert value == pytest.approx(-np.log(1e-12))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(l2=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", -0.01), ("learning_rate", np.inf), ("learning_rate", np.nan),
    ("momentum", np.nan), ("momentum", -np.inf),
    ("l2", np.nan), ("l2", np.inf),
    ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", np.nan), ("clip_norm", np.inf),
])
def test_config_rejects_a_step_that_cannot_descend(field, value):
    # a negative clip norm turns every step into gradient ascent, a NaN one
    # switches clipping off, and a non-finite rate or momentum ends in NaN
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        TrainConfig(**{field: value})


def test_pad_embedding_row_never_moves_during_training():
    vocab, instances = synthetic_separable()
    for inst in instances:
        inst.context_ids = np.concatenate([inst.context_ids, [PAD_INDEX]])
    rng = Rng(17)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=8, hidden_dim=8)
    cfg = TrainConfig(epochs=2, learning_rate=0.05, momentum=0.9, l2=1e-4,
                      dropout=0.5, batch_size=2)
    train(params, instances, cfg, rng)
    assert np.array_equal(params.embeddings[PAD_INDEX], np.zeros(8))


def test_fit_majority_sets_training_frequencies():
    vocab, instances = synthetic_separable(n=20)  # labels 0..2 cycling: 7/7/6
    params = ModelParams(Rng(0), vocab, variant="majority", embed_dim=300, hidden_dim=300)
    fit_majority(params, instances)
    assert np.allclose(params.class_priors, [7 / 20, 7 / 20, 6 / 20])


def test_train_majority_reports_top_class_accuracy():
    vocab, instances = synthetic_separable(n=20)
    params = ModelParams(Rng(0), vocab, variant="majority", embed_dim=300, hidden_dim=300)
    history = train(params, instances, TrainConfig(epochs=5), Rng(0))
    assert len(history) == 1
    assert history[0]["train_acc"] == pytest.approx(7 / 20)
