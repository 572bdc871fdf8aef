import numpy as np
import pytest

from ian.gradcheck import (
    GROUPS,
    check_tiny_model,
    group_of,
    numeric_gradient,
    worst_relative_error,
)

DEFAULT_SEED = 27  # the cli default; wide noise margin at both dims


def test_group_mapping():
    assert group_of("embeddings") == "embeddings"
    assert group_of("ctx_lstm.W_x") == "ctx_lstm"
    assert group_of("tgt_attn.b_a") == "tgt_attn"
    assert group_of("W_l") == "classifier"
    assert group_of("b_l") == "classifier"


def test_numeric_gradient_on_a_quadratic():
    arr = np.array([1.0, -2.0, 3.0])
    got = numeric_gradient(lambda: float(np.sum(arr**2)), arr, eps=1e-5)
    assert np.allclose(got, 2 * arr, atol=1e-8)


def test_worst_relative_error_formula():
    assert worst_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    # denominator floors at 1e-8 for near-zero pairs
    got = worst_relative_error(np.array([0.0]), np.array([1e-12]))
    assert got == pytest.approx(1e-12 / 1e-8)


@pytest.mark.parametrize("dim", [3, 8])
def test_all_groups_pass_at_both_dims(dim):
    errors, elapsed = check_tiny_model(
        seed=DEFAULT_SEED, embed_dim=dim, hidden_dim=dim, n_ctx=4, n_tgt=2, l2=0.01
    )
    assert set(errors) == set(GROUPS)
    for group, err in errors.items():
        assert err <= 1e-4, f"{group}: {err}"
    assert elapsed < 10.0


def test_ten_random_instances_pass():
    # coarser step: on near-zero gradients the 1e-5 step's rounding noise
    # alone can exceed the bound, regardless of gradient correctness
    for seed in range(10):
        errors, _ = check_tiny_model(seed=seed, embed_dim=3, hidden_dim=3,
                                     l2=0.01, eps=1e-4)
        assert max(errors.values()) <= 1e-4, (seed, errors)


def test_tied_attention_variant_checks_out():
    errors, _ = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3,
                                 tie_attention=True, l2=0.01)
    assert "tgt_attn" not in errors
    assert max(errors.values()) <= 1e-4


@pytest.mark.parametrize("group", GROUPS)
def test_corrupting_a_group_is_detected(group):
    errors, _ = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3,
                                 l2=0.01, corrupt_group=group)
    assert errors[group] > 1e-4, errors
    for other, err in errors.items():
        if other != group:
            assert err <= 1e-4, (other, err)


def test_unknown_corrupt_group_rejected():
    with pytest.raises(ValueError):
        check_tiny_model(seed=0, embed_dim=3, hidden_dim=3, corrupt_group="optimizer")
