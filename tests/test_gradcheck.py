import itertools

import numpy as np
import pytest

import ian.gradcheck
from _corrupt import double_array, double_group
from fdcheck import fd_grad, max_rel_err
from ian.embeddings import Vocabulary
from ian.gradcheck import (
    SCALE,
    TOLERANCE,
    check_tiny_model,
    group_of,
    numeric_gradient,
    relative_error,
)
from ian.model import TRAINABLE, ModelParams
from ian.numerics import Rng
from ian.training import loss_and_grads

DEFAULT_SEED = 27  # the cli default
# seeds at which every array of every variant is doubled in turn: at dims 3
# they draw the smallest attention-bias gradients of CI's 30-seed sweep
DOUBLED_SEEDS = (8, 29)

# the components of an untied ian model, in the order of its named_arrays()
GROUPS = ("embeddings", "ctx_lstm", "tgt_lstm", "ctx_attn", "tgt_attn", "classifier")

# (variant, seed, dims) checks that float64 central differences failed at
# the default flags (relative errors 1.0e-4 to 3.7e-3, all on a bias but one
# W_x entry): every one over the six variants x seeds 0-29 at dims 3, and
# three of the 16 at dims 8, among them the worst and one on an attention bias
FAILED_AT_FLOAT64 = [
    ("ian", 2, 3), ("ian", 8, 3), ("no_target", 19, 3), ("no_interaction", 2, 3),
    ("no_interaction", 8, 3), ("target2content", 3, 3), ("target2content", 10, 3),
    ("target2content", 14, 3), ("target2content", 22, 3), ("lstm_avg", 15, 3),
    ("lstm_avg", 19, 3), ("td_lstm", 21, 3), ("td_lstm", 25, 3),
    ("target2content", 0, 8), ("no_target", 11, 8), ("td_lstm", 17, 8),
]


def test_group_mapping():
    assert group_of("embeddings") == "embeddings"
    assert group_of("ctx_lstm.W_x") == "ctx_lstm"
    assert group_of("tgt_attn.b_a") == "tgt_attn"
    assert group_of("W_l") == "classifier"
    assert group_of("b_l") == "classifier"


def test_numeric_gradient_on_a_quadratic():
    arr = np.array([1.0, -2.0, 3.0], dtype=np.complex128)
    got = numeric_gradient(lambda: np.sum(arr**2).item(), arr)
    assert np.allclose(got, 2 * arr, atol=1e-8)


def test_relative_error_formula():
    assert relative_error(np.array([1.0]), np.array([1.0])).tolist() == [0.0]
    # denominator floors at 1e-8 for near-zero pairs
    got = relative_error(np.array([0.0, 2.0]), np.array([1e-12, 1.0]))
    assert got == pytest.approx([1e-12 / 1e-8, 1.0 / 3.0])


@pytest.mark.parametrize("dim", [3, 8])
def test_all_groups_pass_at_both_dims(dim):
    found = check_tiny_model(seed=DEFAULT_SEED, embed_dim=dim, hidden_dim=dim,
                             variant="ian", tie_attention=False)
    assert tuple(found) == GROUPS
    for group, (err, name, idx, analytic, numeric) in found.items():
        assert err <= 1e-4, f"{group}: {err}"
        assert group_of(name) == group
        assert err == abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def test_ten_random_instances_pass():
    for seed in range(10):
        found = check_tiny_model(seed=seed, embed_dim=3, hidden_dim=3,
                                 variant="ian", tie_attention=False)
        assert max(err for err, *_ in found.values()) <= 1e-4, (seed, found)


def test_tied_attention_variant_checks_out():
    found = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3,
                             variant="ian", tie_attention=True)
    assert "tgt_attn" not in found
    assert max(err for err, *_ in found.values()) <= 1e-4


@pytest.mark.parametrize("group", GROUPS)
def test_corrupting_a_group_is_detected(monkeypatch, group):
    double_group(monkeypatch, group)
    found = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3,
                             variant="ian", tie_attention=False)
    err, name, idx, analytic, numeric = found[group]
    assert err > 1e-4, found
    assert group_of(name) == group
    # the doubled coordinate reads about twice its numeric value
    assert analytic == pytest.approx(2 * numeric, rel=1e-3)
    for other, (other_err, *_) in found.items():
        if other != group:
            assert other_err <= 1e-4, (other, other_err)


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_doubling_any_one_array_fails(variant, tie):
    # every hand-derived gradient array is load-bearing for the check: each
    # round doubles one array of each group, and each such group fails on it
    model = ModelParams(None, Vocabulary([]), variant=variant, embed_dim=3, hidden_dim=3,
                        tie_attention=tie)
    groups = {}
    for name, _ in model.named_arrays():
        groups.setdefault(group_of(name), []).append(name)
    for seed in DOUBLED_SEEDS:
        for picks in itertools.zip_longest(*groups.values()):
            picks = [name for name in picks if name is not None]
            with pytest.MonkeyPatch.context() as m:
                for name in picks:
                    double_array(m, name)
                found = check_tiny_model(seed=seed, embed_dim=3, hidden_dim=3,
                                         variant=variant, tie_attention=tie)
            for name in picks:
                err, worst, *_ = found[group_of(name)]
                assert err > TOLERANCE and worst == name, (seed, name, found)


@pytest.mark.parametrize("variant,seed,dim", FAILED_AT_FLOAT64)
def test_checks_that_failed_in_float64_pass(variant, seed, dim):
    found = check_tiny_model(seed=seed, embed_dim=dim, hidden_dim=dim,
                             variant=variant, tie_attention=False)
    assert max(err for err, *_ in found.values()) <= 1e-4, found


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_unequal_dims_pass(variant, tie):
    # a narrower embedding than hidden state: a place that uses one dim for
    # the other (no_target's query is embed_dim wide) cannot pass by accident
    found = check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=5, variant=variant,
                             tie_attention=tie)
    assert max(err for err, *_ in found.values()) <= TOLERANCE, found


@pytest.mark.parametrize("variant,tie", TRAINABLE)
@pytest.mark.parametrize("embed_dim,hidden_dim", [(3, 3), (7, 5)])
def test_checked_model_is_the_float64_model_in_precision(monkeypatch, variant, tie,
                                                         embed_dim, hidden_dim):
    built = {}

    def recording(rng, *args, **kwargs):
        params = ModelParams(rng, *args, **kwargs)
        built.update(params=params, state=rng.bit_generator.state)
        return params

    monkeypatch.setattr(ian.gradcheck, "ModelParams", recording)
    monkeypatch.setattr(ian.gradcheck, "gradient_check", lambda *args, **kwargs: {})
    check_tiny_model(seed=11, embed_dim=embed_dim, hidden_dim=hidden_dim,
                     variant=variant, tie_attention=tie)
    rng = Rng(11)
    reference = ModelParams(rng, Vocabulary([f"w{i}" for i in range(8)]), variant=variant,
                            embed_dim=embed_dim, hidden_dim=hidden_dim, tie_attention=tie)
    checked = dict(built["params"].named_arrays())
    assert list(checked) == [name for name, _ in reference.named_arrays()]
    for name, arr in reference.named_arrays():
        assert checked[name].dtype == np.float64, name
        assert np.array_equal(checked[name], SCALE * arr), name
    # the generator stands where the float64 model leaves it
    assert built["state"] == rng.bit_generator.state


def test_complex_step_agrees_with_float64_central_differences(monkeypatch):
    # the complex step on ian's twin against tests/fdcheck.py's central
    # differences on the float64 model and batch check_tiny_model builds
    seen = {"steps": []}
    real_check, real_numeric = ian.gradcheck.gradient_check, ian.gradcheck.numeric_gradient

    def recording_check(params, cases, l2, chunk_rows):
        seen.update(params=params, cases=cases, l2=l2, chunk_rows=chunk_rows)
        return real_check(params, cases, l2, chunk_rows)

    def recording_numeric(objective, arr):
        grad = real_numeric(objective, arr)
        seen["steps"].append(grad.copy())  # before the check zeroes the pad row
        return grad

    monkeypatch.setattr(ian.gradcheck, "gradient_check", recording_check)
    monkeypatch.setattr(ian.gradcheck, "numeric_gradient", recording_numeric)
    check_tiny_model(seed=DEFAULT_SEED, embed_dim=3, hidden_dim=3,
                     variant="ian", tie_attention=False)
    params = seen["params"]

    def loss():
        return loss_and_grads(params, seen["cases"], l2=seen["l2"],
                              chunk_rows=seen["chunk_rows"])

    arrays = list(params.named_arrays())
    assert len(seen["steps"]) == len(arrays)
    for (name, arr), step in zip(arrays, seen["steps"]):
        central = fd_grad(loss, arr)
        # central differences at eps 1e-5 carry about 5e-11 of noise here
        assert np.max(np.abs(step - central)) <= 1e-9, name
        large = np.abs(step) > 1e-6
        if large.any():  # at the probe's scale only the pad row's gradients are not
            assert max_rel_err(step[large], central[large]) <= 1e-4, name
