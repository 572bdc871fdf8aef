import numpy as np
import pytest

from _corrupt import double_group
from ian.gradcheck import (
    check_tiny_model,
    group_of,
    numeric_gradient,
    worst_relative_error,
)
from ian.model import GROUPS

DEFAULT_SEED = 27  # the cli default; wide noise margin at both dims


def test_group_mapping():
    assert group_of("embeddings") == "embeddings"
    assert group_of("ctx_lstm.W_x") == "ctx_lstm"
    assert group_of("tgt_attn.b_a") == "tgt_attn"
    assert group_of("W_l") == "classifier"
    assert group_of("b_l") == "classifier"


def test_numeric_gradient_on_a_quadratic():
    arr = np.array([1.0, -2.0, 3.0])
    got = numeric_gradient(lambda: float(np.sum(arr**2)), arr, 1e-5)
    assert np.allclose(got, 2 * arr, atol=1e-8)


def test_worst_relative_error_formula():
    assert worst_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    # denominator floors at 1e-8 for near-zero pairs
    got = worst_relative_error(np.array([0.0]), np.array([1e-12]))
    assert got == pytest.approx(1e-12 / 1e-8)


@pytest.mark.parametrize("dim", [3, 8])
def test_all_groups_pass_at_both_dims(dim):
    found = check_tiny_model(
        seed=DEFAULT_SEED, embed_dim=dim, hidden_dim=dim, n_ctx=4, n_tgt=2, variant="ian",
        tie_attention=False, l2=0.01, eps=1e-5
    )
    assert set(found) == set(GROUPS)
    for group, (err, name, idx, analytic, numeric) in found.items():
        assert err <= 1e-4, f"{group}: {err}"
        assert group_of(name) == group
        assert abs(analytic - numeric) <= err * max(1e-8, abs(analytic) + abs(numeric))


def test_ten_random_instances_pass():
    # coarser step: on near-zero gradients the 1e-5 step's rounding noise
    # alone can exceed the bound, regardless of gradient correctness
    for seed in range(10):
        found = check_tiny_model(seed=seed, embed_dim=3, hidden_dim=3, n_ctx=4, n_tgt=2,
                                 variant="ian", tie_attention=False, l2=0.01, eps=1e-4)
        assert max(err for err, *_ in found.values()) <= 1e-4, (seed, found)


def test_tied_attention_variant_checks_out():
    found = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3, n_ctx=4, n_tgt=2,
                             variant="ian", tie_attention=True, l2=0.01, eps=1e-5)
    assert "tgt_attn" not in found
    assert max(err for err, *_ in found.values()) <= 1e-4


@pytest.mark.parametrize("group", GROUPS)
def test_corrupting_a_group_is_detected(monkeypatch, group):
    double_group(monkeypatch, group)
    found = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3, n_ctx=4, n_tgt=2,
                             variant="ian", tie_attention=False, l2=0.01, eps=1e-5)
    err, name, idx, analytic, numeric = found[group]
    assert err > 1e-4, found
    assert group_of(name) == group
    # the doubled coordinate reads about twice its numeric value
    assert analytic == pytest.approx(2 * numeric, rel=1e-3)
    for other, (other_err, *_) in found.items():
        if other != group:
            assert other_err <= 1e-4, (other, other_err)
