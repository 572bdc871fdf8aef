import io
import json
import re
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npy_format

import ian.model
from _damage import CENTRAL_ENTRY_EDITS, edit_central_entry
from _loop_lstm import gate_blocks
from _oracles import oracle_probs
from ian.embeddings import PAD_INDEX, Vocabulary
from ian.lstm import lstm_forward
from ian.model import (
    LABELS,
    TRAINABLE,
    VARIANTS,
    ModelParams,
    backward,
    forward,
    load_checkpoint,
    mean_matrix,
    save_checkpoint,
)
from ian.numerics import Rng


def tiny_vocab(n_tokens=10):
    return Vocabulary([f"w{i}" for i in range(n_tokens)])


def make(variant, seed=0, de=4, dh=4, tie=False, vocab_size=10):
    return ModelParams(
        Rng(seed), tiny_vocab(vocab_size), variant=variant,
        embed_dim=de, hidden_dim=dh, tie_attention=tie,
    )


def random_instance(rng, vocab_size, n_lo=1, n_hi=7, m_lo=1, m_hi=3, pad_tail=0):
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(m_lo, m_hi + 1))
    ctx = rng.integers(1, vocab_size + 1, n)
    tgt = rng.integers(1, vocab_size + 1, m)
    if pad_tail:
        ctx = np.concatenate([ctx, np.zeros(pad_tail, dtype=ctx.dtype)])
    return np.asarray(ctx), np.asarray(tgt)


def test_forward_matches_oracle_on_100_random_instances():
    rng = Rng(2024)
    for case in range(100):
        de = dh = int(rng.integers(2, 5))
        params = make("ian", seed=case, de=de, dh=dh)
        pad_tail = int(rng.integers(0, 3))
        ctx, tgt = random_instance(rng, 10, pad_tail=pad_tail)
        probs, _ = forward(params, ctx, tgt)
        ref = oracle_probs(params, ctx, tgt)
        assert np.max(np.abs(probs - np.array(ref))) <= 1e-10


@pytest.mark.parametrize("variant", ["no_interaction", "target2content", "no_target", "lstm_avg"])
def test_ablation_forward_matches_oracle_on_100_random_instances(variant):
    rng = Rng(2025)
    for case in range(100):
        de = int(rng.integers(2, 5))
        dh = int(rng.integers(2, 5))
        params = make(variant, seed=case, de=de, dh=dh)
        ctx, tgt = random_instance(rng, 10, pad_tail=int(rng.integers(0, 3)))
        if case % 2:
            tgt = np.concatenate([tgt, [PAD_INDEX]])
        probs, _ = forward(params, ctx, tgt)
        ref = oracle_probs(params, ctx, tgt)
        assert np.max(np.abs(probs - np.array(ref))) <= 1e-10


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "majority"])
def test_probs_form_a_distribution(variant):
    params = make(variant, seed=3)
    rng = Rng(40)
    for _ in range(10):
        ctx, tgt = random_instance(rng, 10, n_lo=2)
        span = (0, len(tgt)) if variant == "td_lstm" else None
        probs, _ = forward(params, ctx, tgt, span=span)
        assert probs.shape == (1, len(LABELS))
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-10


def test_attention_weights_sum_to_one_in_trace():
    params = make("ian", seed=5)
    ctx, tgt = random_instance(Rng(6), 10, n_lo=3)
    _, trace = forward(params, ctx, tgt)
    assert abs(trace["ctx_weights"].sum() - 1.0) < 1e-10
    assert abs(trace["tgt_weights"].sum() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "variant", ["ian", "no_target", "no_interaction", "target2content", "lstm_avg"]
)
def test_trailing_padding_leaves_output_bit_identical(variant):
    params = make(variant, seed=9)
    rng = Rng(50)
    for _ in range(5):
        ctx, tgt = random_instance(rng, 10, n_lo=2)
        base, _ = forward(params, ctx, tgt)
        padded_ctx = np.concatenate([ctx, [PAD_INDEX, PAD_INDEX]])
        got, _ = forward(params, padded_ctx, tgt)
        assert np.array_equal(base, got)
        if variant != "lstm_avg":
            padded_tgt = np.concatenate([tgt, [PAD_INDEX]])
            got2, _ = forward(params, ctx, padded_tgt)
            assert np.array_equal(base, got2)


def test_majority_returns_priors_and_ignores_text():
    params = make("majority")
    params.class_priors[:] = [0.5, 0.2, 0.3]
    p1, _ = forward(params, [1, 2, 3], [1])
    p2, _ = forward(params, [4], [4, 4])
    assert np.array_equal(p1, [[0.5, 0.2, 0.3]])
    assert np.array_equal(p1, p2)


def test_majority_has_no_backward_pass():
    params = make("majority")
    _, trace = forward(params, [1, 2, 3], [1])
    with pytest.raises(ValueError, match="majority baseline has no gradients"):
        backward(params, trace, [0], grads=None)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_model_ties_its_attentions_only_in_a_trainable_layout(variant):
    # the variants that attend both sides, each side by an average query
    assert {v for v, tie in TRAINABLE if tie} == {"ian", "no_interaction"}
    assert (variant, False) in TRAINABLE or variant == "majority"
    if (variant, True) in TRAINABLE:
        params = make(variant, tie=True)
        assert params.tgt_attn is params.ctx_attn
    else:
        with pytest.raises(ValueError, match=f"variant '{variant}' has no second attention"):
            make(variant, tie=True)


def test_td_lstm_branches_meet_at_the_span():
    params = make("td_lstm", seed=11)
    rng = Rng(60)
    ctx = rng.integers(1, 11, 7)
    span = (2, 4)
    _, trace = forward(params, ctx, ctx[2:4], span=span)
    left_h, _, _ = lstm_forward(params.ctx_lstm, ctx[:4, None], params.embeddings,
                                np.array([4]))
    right_h, _, _ = lstm_forward(params.tgt_lstm, ctx[2:][::-1, None], params.embeddings,
                                 np.array([5]))
    expected = np.concatenate([left_h[-1], right_h[-1]])
    assert np.allclose(trace["dropped"], expected, atol=1e-15)


def test_td_lstm_requires_span():
    params = make("td_lstm")
    with pytest.raises(ValueError):
        forward(params, [1, 2, 3], [2])


def test_tie_attention_shares_arrays():
    tied = make("ian", seed=7, tie=True)
    assert tied.tgt_attn is tied.ctx_attn
    names = [n for n, _ in tied.named_arrays()]
    assert "ctx_attn.W_a" in names and "tgt_attn.W_a" not in names
    untied = make("ian", seed=7, tie=False)
    untied_names = [n for n, _ in untied.named_arrays()]
    assert "tgt_attn.W_a" in untied_names


def test_tie_attention_rejected_without_second_attention():
    for variant in ("no_target", "target2content", "lstm_avg", "td_lstm"):
        with pytest.raises(ValueError):
            make(variant, tie=True)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        make("transformer")


def test_same_seed_same_model():
    a = make("ian", seed=13)
    b = make("ian", seed=13)
    for (na, xa), (nb, xb) in zip(a.named_arrays(), b.named_arrays()):
        assert na == nb and np.array_equal(xa, xb)


def test_no_target_attention_matrix_is_rectangular():
    params = ModelParams(Rng(0), tiny_vocab(), variant="no_target",
                         embed_dim=5, hidden_dim=3)
    assert params.ctx_attn.W_a.shape == (3, 5)
    assert params.W_l.shape == (len(LABELS), 3)


def test_feature_dims_per_variant():
    assert make("ian").feature_dim() == 8
    assert make("no_interaction").feature_dim() == 8
    assert make("target2content").feature_dim() == 8
    assert make("td_lstm").feature_dim() == 8
    assert make("no_target").feature_dim() == 4
    assert make("lstm_avg").feature_dim() == 4


def test_mean_matrix_matches_plain_mean_when_unmasked():
    rng = Rng(1)
    rows = rng.uniform(-1, 1, (5, 3))
    in_order = np.arange(5)[:, None]
    assert np.allclose((mean_matrix(in_order, 5).T @ rows)[0], rows.mean(axis=0))
    mask = np.array([True, False, True, False, False])[:, None]
    selected = np.where(mask, in_order, -1)
    assert np.allclose((mean_matrix(selected, 5).T @ rows)[0], rows[[0, 2]].mean(axis=0))
    # two columns of 3 and 2 positions, packed step by step
    row_of = np.array([[0, 1], [2, 3], [4, -1]])
    two = mean_matrix(row_of, 5).T @ rows
    assert np.allclose(two, [rows[[0, 2, 4]].mean(axis=0), rows[[1, 3]].mean(axis=0)])
    with pytest.raises(ValueError):
        mean_matrix(np.full((5, 1), -1), 5)


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_round_trip_bit_identical(tmp_path, variant):
    tie = variant == "ian"
    params = make(variant, seed=21, tie=tie) if variant != "majority" else make("majority")
    if variant == "majority":
        params.class_priors[:] = [0.3, 0.45, 0.25]
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params, config={"lr": 0.01})
    loaded, meta = load_checkpoint(path)
    assert meta["variant"] == variant
    assert meta["config"] == {"lr": 0.01}
    orig = dict(params.named_arrays())
    back = dict(loaded.named_arrays())
    assert orig.keys() == back.keys()
    for name in orig:
        assert np.array_equal(orig[name], back[name]), name
    if variant != "majority":
        assert loaded.vocab.tokens == params.vocab.tokens
        ctx, tgt = random_instance(Rng(1), 10, n_lo=2)
        span = (0, len(tgt)) if variant == "td_lstm" else None
        a, _ = forward(params, ctx, tgt, span=span)
        b, _ = forward(loaded, ctx, tgt, span=span)
        assert np.array_equal(a, b)
    if tie:
        assert loaded.tgt_attn is loaded.ctx_attn


# written by save_checkpoint at commit b43930f, the last whose LSTMs kept
# per-gate views beside their fused arrays, from per_gate_era_model()
PER_GATE_CHECKPOINT = Path(__file__).parent / "fixtures" / "ian_tied_per_gate.npz"


def per_gate_era_model():
    """The model that checkpoint holds: tied ian at 4/3 dims over 30 words,
    seed 11, every bias drawn after construction so none is zero."""
    rng = Rng(11)
    params = ModelParams(rng, tiny_vocab(30), variant="ian", embed_dim=4, hidden_dim=3,
                         tie_attention=True)
    for arr in (params.ctx_lstm.b, params.tgt_lstm.b, params.b_l):
        arr[...] = rng.uniform(-0.1, 0.1, arr.shape)
    params.ctx_attn.b_a[...] = rng.uniform(-0.1, 0.1)
    return params


def npz_members(path):
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def test_checkpoint_of_the_per_gate_era_loads_to_its_seeded_model():
    loaded, _ = load_checkpoint(str(PER_GATE_CHECKPOINT))
    want = per_gate_era_model()
    assert [(name, arr.shape) for name, arr in loaded.named_arrays()] == [
        (name, arr.shape) for name, arr in want.named_arrays()]
    for (name, got), (_, arr) in zip(loaded.named_arrays(), want.named_arrays()):
        assert np.array_equal(got, arr), name
    # each stored gate array is its gate's row block of the fused arrays
    stored = np.load(PER_GATE_CHECKPOINT, allow_pickle=False)
    for side in ("ctx", "tgt"):
        for gate_name, block in gate_blocks(getattr(want, f"{side}_lstm")).items():
            assert np.array_equal(stored[f"{side}_lstm.{gate_name}"], block), gate_name


def test_saved_checkpoint_has_the_per_gate_era_members(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), per_gate_era_model())
    # each member holds its .npy header (shape, dtype) and the array's bytes
    assert npz_members(path) == npz_members(PER_GATE_CHECKPOINT)


def test_checkpoint_rejects_missing_arrays(tmp_path):
    params = make("ian", seed=2)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params)
    data = dict(np.load(path, allow_pickle=False))
    del data["W_l"]
    broken = str(tmp_path / "broken.npz")
    np.savez(broken, **data)
    with pytest.raises(ValueError, match=r"missing \['W_l.npy'\], unexpected \[\]$"):
        load_checkpoint(broken)


@pytest.mark.parametrize("dropped, cause", [
    (None, "'W_l' has shape (3, 6); its __meta__ implies (3, 4000)"),
    ("W_l", "missing ['W_l.npy'], unexpected []"),
    ("embeddings", "missing ['embeddings.npy'], unexpected []"),
])
def test_meta_dims_no_member_declares_are_refused_before_any_allocation(tmp_path, dropped,
                                                                        cause):
    # an 11 KB checkpoint whose meta says hidden_dim 2000: a shell built from
    # the meta alone takes about 300 MiB before a member shape refuses it;
    # without W_l or embeddings no header can vouch for the dims either
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, make("ian", seed=2, de=4, dh=3))
    data = dict(np.load(path, allow_pickle=False))
    meta = json.loads(str(data["__meta__"]))
    data["__meta__"] = np.array(json.dumps({**meta, "hidden_dim": 2000}))
    data.pop(dropped, None)
    np.savez(path, **data)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(cause)):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak


@pytest.mark.parametrize("stored", [
    lambda arr: arr.astype(np.float32),
    lambda arr: arr.astype(">f8"),
    np.asfortranarray,
], ids=["float32", "big_endian", "fortran_order"])
def test_checkpoint_array_of_another_dtype_or_order_is_refused(tmp_path, stored):
    # loading reads the bytes straight into the model's float64 arrays, so
    # an array stored any other way fails, naming the array
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, make("ian", seed=2))
    data = dict(np.load(path, allow_pickle=False))
    data["ctx_attn.W_a"] = stored(data["ctx_attn.W_a"])
    np.savez(path, **data)
    with pytest.raises(ValueError, match="checkpoint array 'ctx_attn.W_a' has shape"):
        load_checkpoint(path)


def test_checkpoint_arrays_read_in_pieces(tmp_path, monkeypatch):
    monkeypatch.setattr(ian.model, "READ_PIECE", 24)  # 3 float64 entries at a time
    params = make("td_lstm", seed=5, de=5, dh=3)
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    for (name, arr), (_, back) in zip(params.named_arrays(), loaded.named_arrays()):
        assert np.array_equal(arr, back), name


def _as_npy_v2(record: bytes) -> bytes:
    out = io.BytesIO()
    npy_format.write_array(out, npy_format.read_array(io.BytesIO(record)), version=(2, 0))
    return out.getvalue()


# edits of one member's bytes (W_l unless named), each written back under a
# valid zip CRC
MEMBER_EDITS = {
    "npy_v2": _as_npy_v2,
    "short_member": lambda record: record[:-8],
    "trailing_bytes": lambda record: record + bytes(8),
}
META_EDITS = {"bad_format": lambda meta: {**meta, "format": 2},
              "bad_vocab": lambda meta: {**meta, "vocab": meta["vocab"][1:]},
              "config_list": lambda meta: {**meta, "config": []},
              "config_text": lambda meta: {**meta, "config": "x"}}


def _damaged(tmp_path, how, member="W_l"):
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), make("ian", seed=2))
    raw = path.read_bytes()
    if how == "not_zip":
        path.write_bytes(b"x" * len(raw))
    elif how == "truncated":
        path.write_bytes(raw[: len(raw) - 40])
    elif how in MEMBER_EDITS:
        with zipfile.ZipFile(path) as archive:
            records = {name: archive.read(name) for name in archive.namelist()}
        records[f"{member}.npy"] = MEMBER_EDITS[how](records[f"{member}.npy"])
        with zipfile.ZipFile(path, "w") as archive:
            for name, record in records.items():
                archive.writestr(name, record)
    else:
        data = dict(np.load(str(path), allow_pickle=False))
        if how == "no_meta":
            del data["__meta__"]
        elif how == "bad_json":
            data["__meta__"] = np.array("{not json")
        else:
            meta = META_EDITS[how](json.loads(str(data["__meta__"])))
            data["__meta__"] = np.array(json.dumps(meta))
        np.savez(str(path), **data)
    return str(path)


@pytest.mark.parametrize("how, cause", [
    ("not_zip", "not a zip archive"),
    ("truncated", "not a zip archive"),
    ("no_meta", "no __meta__ record"),
    ("bad_json", "not valid JSON"),
    ("bad_format", "unsupported checkpoint format: 2$"),
    ("bad_vocab", "vocabulary does not start with the pad token"),
    ("config_list", "__meta__ config is not an object$"),
    ("config_text", "__meta__ config is not an object$"),
    ("npy_v2", r"'W_l' has \.npy version \(2, 0\)"),
    ("short_member", "'W_l' is truncated"),
    ("trailing_bytes", "'W_l' has trailing bytes"),
])
def test_checkpoint_load_failure_is_one_value_error(tmp_path, how, cause):
    path = _damaged(tmp_path, how)
    with pytest.raises(ValueError, match=cause) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"cannot load checkpoint {path}: ")


@pytest.mark.parametrize("how, cause", [
    ("short_member", "'ctx_attn.W_a' is truncated$"),
    ("trailing_bytes", "'ctx_attn.W_a' has trailing bytes$"),
])
def test_damaged_data_of_a_member_read_into_the_shell_is_one_value_error(tmp_path, how,
                                                                       cause):
    # only the headers of embeddings and W_l are checked before the shell is
    # built; an attention matrix's missing or extra data is found as it is read
    path = _damaged(tmp_path, how, member="ctx_attn.W_a")
    with pytest.raises(ValueError, match=cause) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"cannot load checkpoint {path}: ")


@pytest.mark.parametrize("field", CENTRAL_ENTRY_EDITS)
def test_unsupported_zip_entry_is_one_value_error(tmp_path, field):
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), make("ian", seed=2))
    path.write_bytes(edit_central_entry(path.read_bytes(), field))
    cause = CENTRAL_ENTRY_EDITS[field][2]
    with pytest.raises(ValueError, match=cause) as exc:
        load_checkpoint(str(path))
    assert str(exc.value).startswith(f"cannot load checkpoint {path}: ")


def test_damaged_checkpoint_loads_intact_or_fails_as_one_value_error(tmp_path):
    # every prefix at a 61-byte stride, plus seeded single-bit flips: 300
    # anywhere, 300 inside the central directory (where most of the zip
    # fields are); a file either loads the original arrays bit for bit or
    # raises the one ValueError, never another exception
    params = make("ian", seed=2, de=3, dh=3)
    good = tmp_path / "model.npz"
    save_checkpoint(str(good), params)
    raw = good.read_bytes()
    orig = dict(params.named_arrays())
    rng = Rng(17)
    damaged = [raw[:cut] for cut in range(0, len(raw), 61)]
    for lo in [0] * 300 + [raw.index(b"PK\x01\x02")] * 300:
        flipped = bytearray(raw)
        flipped[int(rng.integers(lo, len(raw)))] ^= 1 << int(rng.integers(0, 8))
        damaged.append(bytes(flipped))
    path = tmp_path / "damaged.npz"
    outcomes = {"loaded": 0, "refused": 0}
    for data in damaged:
        path.write_bytes(data)
        try:
            loaded, _ = load_checkpoint(str(path))
        except ValueError as err:
            assert str(err).startswith(f"cannot load checkpoint {path}: ")
            outcomes["refused"] += 1
            continue
        back = dict(loaded.named_arrays())
        assert back.keys() == orig.keys()
        assert all(np.array_equal(back[name], orig[name]) for name in orig)
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["refused"]


def test_checkpoint_load_builds_its_shell_from_zero_init(tmp_path, monkeypatch):
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, make("ian", seed=3, tie=True))
    sources = []
    init = ModelParams.__init__

    def spy(self, rng, *args, **kwargs):
        sources.append(rng)
        init(self, rng, *args, **kwargs)

    monkeypatch.setattr(ModelParams, "__init__", spy)
    load_checkpoint(path)
    assert sources == [None]  # no generator: loading draws no random number
