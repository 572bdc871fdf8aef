"""uniform_init fills every weight array in place; these tests hold it to
the construction it replaced, where each draw was a fresh rng.uniform array
copied into place, draw for draw and bit for bit."""

import numpy as np
import pytest

from ian.embeddings import PAD_INDEX, Vocabulary, load_pretrained
from ian.model import LABELS, TRAINABLE, ModelParams
from ian.numerics import Rng, uniform_init

CASES = [("majority", False), *TRAINABLE]


def copied_init(seed: int, params: ModelParams) -> tuple:
    """The named arrays a seed gave when every draw was a fresh array copied
    into place (embeddings, each LSTM's gates word block then hidden block,
    context attention, target attention unless tied, classifier), and the
    generator after the last draw. params supplies only which components
    exist and their shapes."""
    rng = Rng(seed)

    def draw(*shape):
        return rng.uniform(-0.1, 0.1, shape)

    want = {}
    if params.class_priors is not None:  # majority draws nothing
        want["class_priors"] = np.full(len(LABELS), 1.0 / len(LABELS))
        return want, rng
    want["embeddings"] = draw(len(params.vocab), params.embed_dim)
    want["embeddings"][PAD_INDEX] = 0.0
    dh = params.hidden_dim
    for side in ("ctx_lstm", "tgt_lstm"):
        if getattr(params, side) is None:
            continue
        W_x = np.empty((4 * dh, params.embed_dim))
        W_h = np.empty((4 * dh, dh))
        for lo in range(0, 4 * dh, dh):
            W_x[lo:lo + dh] = draw(dh, params.embed_dim)
            W_h[lo:lo + dh] = draw(dh, dh)
        want.update({f"{side}.W_x": W_x, f"{side}.W_h": W_h, f"{side}.b": np.zeros(4 * dh)})
    for side in ("ctx_attn", "tgt_attn"):
        attn = getattr(params, side)
        if attn is None or (side == "tgt_attn" and params.tie_attention):
            continue
        want.update({f"{side}.W_a": draw(*attn.W_a.shape), f"{side}.b_a": np.zeros(())})
    want["W_l"] = draw(len(LABELS), params.W_l.shape[1])
    want["b_l"] = np.zeros(len(LABELS))
    return want, rng


@pytest.mark.parametrize("embed_dim,hidden_dim", [(3, 3), (7, 5), (300, 300)])
@pytest.mark.parametrize("variant,tie", CASES)
def test_seeded_model_equals_the_copied_construction(variant, tie, embed_dim, hidden_dim):
    rng = Rng(11)
    vocab = Vocabulary([f"w{i}" for i in range(9)])
    params = ModelParams(rng, vocab, variant=variant, embed_dim=embed_dim,
                         hidden_dim=hidden_dim, tie_attention=tie)
    want, ref_rng = copied_init(11, params)
    got = dict(params.named_arrays())
    assert got.keys() == want.keys()
    for name, arr in got.items():
        assert arr.dtype == want[name].dtype and np.array_equal(arr, want[name]), name
    assert rng.uniform() == ref_rng.uniform()  # both generators drew as much
    if tie:
        assert params.tgt_attn is params.ctx_attn


def test_load_pretrained_equals_the_copied_construction(tmp_path):
    vocab = Vocabulary(["ant", "bee", "cat", "dog", "eel", "fox"])
    path = tmp_path / "vectors.txt"
    path.write_text("bee 0.5 -0.5 1.0\nzebra 9 9 9\ndog 1 2 3\nbee 0.25 0.0 -1\n",
                    encoding="utf-8")
    rng = Rng(4)
    table, hits, misses = load_pretrained(str(path), vocab, 3, rng)

    ref_rng = Rng(4)
    want = np.zeros((len(vocab), 3))
    rows = {"bee": [0.25, 0.0, -1.0], "dog": [1.0, 2.0, 3.0]}  # a repeated token's last row
    for idx, token in enumerate(vocab.tokens[1:], 1):
        want[idx] = rows[token] if token in rows else ref_rng.uniform(-0.1, 0.1, (3,))
    assert np.array_equal(table, want)
    assert (hits, misses) == (2, 4)
    assert rng.uniform() == ref_rng.uniform()


@pytest.mark.parametrize("block", [np.s_[4:8], np.s_[:, 1:3]])
def test_uniform_init_on_a_view_draws_what_a_fresh_array_does(block):
    rng, ref_rng = Rng(5), Rng(5)
    out = np.zeros((12, 4))
    assert uniform_init(rng, out[block]).base is out
    want = np.zeros((12, 4))
    want[block] = ref_rng.uniform(-0.1, 0.1, want[block].shape)
    assert np.array_equal(out, want)  # the rest of out is untouched
    assert rng.uniform() == ref_rng.uniform()


def test_uniform_init_without_rng_zeroes_in_place():
    out = np.full((3, 2), 7.0)
    assert uniform_init(None, out) is out
    assert not out.any()
