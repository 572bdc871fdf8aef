import warnings

import numpy as np
import pytest

from _per_case import sigmoid as where_sigmoid
from ian.numerics import (
    Rng,
    sigmoid,
    softmax_stable,
    tanh,
    uniform_init,
)


def test_softmax_uniform_input():
    out = softmax_stable(np.zeros(3))
    assert np.allclose(out, [1 / 3] * 3, atol=1e-12)


def test_softmax_survives_huge_inputs():
    out = softmax_stable(np.array([1000.0, 1000.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_softmax_known_ratio():
    out = softmax_stable(np.array([0.0, np.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_sums_to_one():
    rng = Rng(11)
    for _ in range(50):
        v = rng.uniform(-30, 30, 12)
        assert abs(softmax_stable(v).sum() - 1.0) < 1e-12


def test_softmax_masked_entries_exactly_zero():
    v = np.array([0.4, -np.inf, 1.3, -np.inf])
    out = softmax_stable(v)
    assert out[1] == 0.0 and out[3] == 0.0
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_rejects_an_empty_input():
    with pytest.raises(ValueError, match="empty"):
        softmax_stable(np.array([]))


def test_softmax_rejects_all_masked():
    with pytest.raises(ValueError):
        softmax_stable(np.array([-np.inf, -np.inf]))


def test_softmax_shift_invariance():
    rng = Rng(13)
    for _ in range(20):
        v = rng.uniform(-5, 5, 9)
        c = float(rng.uniform(-100, 100))
        assert np.allclose(softmax_stable(v), softmax_stable(v + c), atol=1e-12)


def test_sigmoid_symmetry_and_midpoint():
    assert sigmoid(0.0, out=np.empty(())) == 0.5
    rng = Rng(3)
    x = rng.uniform(-50, 50, 200)
    assert np.allclose(sigmoid(x, out=np.empty(200)) + sigmoid(-x, out=np.empty(200)), 1.0,
                       atol=1e-12)


def test_sigmoid_extreme_arguments_stay_finite():
    with np.errstate(over="raise"):
        lo = sigmoid(np.array([-1e4]), out=np.empty(1))
        hi = sigmoid(np.array([1e4]), out=np.empty(1))
    assert 0.0 <= lo[0] < 1e-300 or lo[0] == 0.0
    assert hi[0] == 1.0


def test_sigmoid_agrees_with_the_where_form_without_warnings():
    x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), Rng(5).uniform(-40, 40, 10_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ref = where_sigmoid(x)
        got = sigmoid(x, out=np.empty_like(x))
        in_place = x.copy()
        sigmoid(in_place, out=in_place)
    assert np.max(np.abs(got - ref)) <= 1e-15
    assert np.array_equal(in_place, got)


def test_tanh_is_odd():
    x = np.linspace(-4, 4, 33)
    assert np.allclose(tanh(x) + tanh(-x), 0.0, atol=1e-12)


def test_uniform_init_deterministic_and_in_range():
    a = uniform_init(Rng(42), np.empty((5, 7)))
    b = uniform_init(Rng(42), np.empty((5, 7)))
    assert np.array_equal(a, b)
    assert a.shape == (5, 7)
    assert np.all(a >= -0.1) and np.all(a < 0.1)


def test_uniform_init_different_seeds_differ():
    a = uniform_init(Rng(1), np.empty((4, 4)))
    b = uniform_init(Rng(2), np.empty((4, 4)))
    assert not np.array_equal(a, b)


def test_uniform_init_mean_near_zero():
    m = uniform_init(Rng(9), np.empty((100, 100)))
    assert abs(m.mean()) < 0.005


def test_rng_stream_is_reproducible():
    r1, r2 = Rng(123), Rng(123)
    assert np.array_equal(r1.uniform(-1, 1, 10), r2.uniform(-1, 1, 10))
    assert np.array_equal(r1.permutation(8), r2.permutation(8))
