"""One precision rule: a model's dtype is its embedding table's, and every
array a pass allocates or returns follows it.

Each test builds the model from a table of another dtype, np.longdouble,
np.float32 or np.complex128 (gradcheck's complex-step twin), and runs the
passes on a batch with a shared context, trailing pads on both sides,
dropout and L2.
"""

import numpy as np
import pytest

import ian.model
from _per_case import case
from ian.cli import main
from ian.data import build_instances, build_vocab, load_reviews
from ian.embeddings import PAD_INDEX, Vocabulary, random_embeddings
from ian.evaluate import evaluate_model, predict_all
from ian.model import TRAINABLE, ModelParams, chunks, forward, load_checkpoint, save_checkpoint
from ian.numerics import Rng
from ian.training import (
    GradSet,
    TrainConfig,
    _l2_term,
    cross_entropy,
    dropout_mask,
    loss_and_grads,
    train,
)

VOCAB = Vocabulary([f"w{i}" for i in range(12)])
DTYPES = [np.longdouble, np.float32, np.complex128]
BATCH = [
    case([1, 2, 3, 4, 5], [2, 3], (1, 3), 0),
    case([1, 2, 3, 4, 5], [5], (4, 5), 2),  # the same context, another target
    case([6, 7, 8, PAD_INDEX], [7, PAD_INDEX], (1, 2), 1),
    case([9, 10, 11, 3, 4, 6, 2], [11], (2, 3), 0),
]
CHUNK_ROWS = 12  # the batch runs as three chunks, one per distinct context


def make_model(variant, tie, dtype):
    rng = Rng(5)
    table = random_embeddings(rng, VOCAB, 4).astype(dtype)
    return ModelParams(rng, VOCAB, variant=variant, embed_dim=4, hidden_dim=3,
                       tie_attention=tie, embeddings=table)


def float_arrays(obj, path="trace"):
    """(path, array) for every floating or complex array inside a nested trace."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc":
            yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from float_arrays(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from float_arrays(value, f"{path}[{k}]")


def assert_dtype(pairs, dtype):
    pairs = list(pairs)
    assert pairs
    for path, arr in pairs:
        assert arr.dtype == dtype, (path, arr.dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_every_model_and_gradient_array_has_the_tables_dtype(variant, tie, dtype):
    params = make_model(variant, tie, dtype)
    assert_dtype(params.named_arrays(), dtype)
    grads = GradSet(params)
    assert_dtype(grads.named_arrays(), dtype)
    assert all(not arr.any() for _, arr in grads.named_arrays())


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_traced_and_untraced_passes_keep_the_dtype(variant, tie, dtype):
    params = make_model(variant, tie, dtype)
    masks = dropout_mask(Rng(1), (len(BATCH), params.feature_dim()), 0.5, dtype)
    assert masks.dtype == dtype
    for keep_trace in (True, False):
        for pos, ctx_idx, tgt_idx, layout in chunks(BATCH, CHUNK_ROWS, keep_trace):
            probs, trace = forward(params, ctx_idx, tgt_idx, keep_trace=keep_trace,
                                   dropout_mask=masks[pos] if keep_trace else None, **layout)
            assert probs.dtype == dtype
            if keep_trace or params.ctx_attn is not None:
                assert_dtype(float_arrays(trace), dtype)
            if keep_trace:
                labels = np.array([BATCH[i].label for i in pos])
                assert type(cross_entropy(probs, labels)) is np.dtype(dtype).type


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_backward_and_loss_keep_the_dtype(monkeypatch, variant, tie, dtype):
    params = make_model(variant, tie, dtype)
    # what the layer backward passes are handed and hand back
    seen = []
    real_attention, real_lstm = ian.model.attention_backward, ian.model.lstm_backward

    def attention_backward(*args):
        d_states, d_query = real_attention(*args)
        seen.extend([("attention d_states", d_states), ("attention d_query", d_query)])
        return d_states, d_query

    def lstm_backward(lstm, trace, d_states, grads, d_table):
        seen.append(("lstm d_states", d_states))
        real_lstm(lstm, trace, d_states, grads, d_table)
        seen.append(("lstm dZ", trace["gates"]))

    monkeypatch.setattr(ian.model, "attention_backward", attention_backward)
    monkeypatch.setattr(ian.model, "lstm_backward", lstm_backward)
    grads = GradSet(params)
    masks = dropout_mask(Rng(1), (len(BATCH), params.feature_dim()), 0.5, dtype)
    loss = loss_and_grads(params, BATCH, l2=0.01, drop_masks=masks, grads=grads,
                          chunk_rows=CHUNK_ROWS)
    assert_dtype(seen, dtype)
    assert_dtype(grads.named_arrays(), dtype)
    assert any(arr.any() for _, arr in grads.named_arrays())
    assert type(_l2_term(params, BATCH, 0.01, None)) is np.dtype(dtype).type
    if dtype is np.float32:  # .item() of a float32 sum is a float holding its value
        assert type(loss) is float and float(np.float32(loss)) == loss
    elif dtype is np.complex128:
        assert type(loss) is complex
    else:
        assert type(loss) is np.longdouble


def test_a_float32_model_trains_and_predicts_in_float32():
    params = make_model("ian", False, np.float32)
    config = TrainConfig(epochs=2, batch_size=2, dropout=0.5, l2=1e-3, clip_norm=1.0)
    before = {name: arr.copy() for name, arr in params.named_arrays()}
    history = train(params, BATCH, config, Rng(2))
    assert all(np.isfinite(entry["loss"]) for entry in history)
    assert_dtype(params.named_arrays(), np.float32)
    assert any(not np.array_equal(arr, before[name]) for name, arr in params.named_arrays())
    assert predict_all(params, BATCH).shape == (len(BATCH),)


def test_a_float32_checkpoint_loads_bit_for_bit_and_ian_eval_scores_it(tmp_path, capsys):
    reviews, _ = load_reviews("laptop", "test")
    vocab = build_vocab([reviews])
    rng = Rng(6)
    table = random_embeddings(rng, vocab, 4).astype(np.float32)
    params = ModelParams(rng, vocab, variant="ian", embed_dim=4, hidden_dim=3,
                         embeddings=table)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params, config={"category": "laptop"})
    loaded, _ = load_checkpoint(path)
    assert [name for name, _ in loaded.named_arrays()] == [
        name for name, _ in params.named_arrays()]
    for (name, arr), (_, back) in zip(params.named_arrays(), loaded.named_arrays()):
        assert back.dtype == np.float32 and np.array_equal(arr, back), name
    instances, _ = build_instances(reviews, vocab, drop_unknown=True)
    report = evaluate_model(params, instances)
    assert main(["eval", "--checkpoint", path]) == 0
    assert (f"ian on laptop test: accuracy {report.correct}/{report.total} = "
            f"{report.accuracy:.4f}") in capsys.readouterr().out


def _float32_checkpoint(tmp_path, **members):
    """A float32 ian checkpoint with the given members swapped in."""
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, make_model("ian", False, np.float32))
    data = dict(np.load(path, allow_pickle=False))
    np.savez(path, **{**data, **{name: edit(data[name]) for name, edit in members.items()}})
    return path


@pytest.mark.parametrize("dtype", [np.float16, np.complex128, ">f4", np.int32])
def test_a_table_of_another_dtype_is_one_load_error(tmp_path, dtype):
    path = _float32_checkpoint(tmp_path, embeddings=lambda arr: arr.astype(dtype))
    with pytest.raises(ValueError, match="checkpoint array 'embeddings' has dtype .*; "
                                         "expected float32 or float64$") as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"cannot load checkpoint {path}: ")


def test_a_member_unlike_a_float32_table_is_refused_by_name(tmp_path):
    path = _float32_checkpoint(tmp_path, **{"ctx_attn.W_a": lambda arr: arr.astype(np.float64)})
    with pytest.raises(ValueError, match="checkpoint array 'ctx_attn.W_a' has shape .*, "
                                         "dtype float64; expected .*, dtype float32"):
        load_checkpoint(path)
