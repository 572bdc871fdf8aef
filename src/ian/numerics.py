"""Dense numeric primitives shared by every layer.

Vectors are 1-D float64 numpy arrays, matrices are 2-D row-major float64
arrays. Elementwise add/mul and scalar ops are numpy's native operators on
those arrays; this module adds the pieces that need shape checks, numerical
stabilization, or seeded determinism.
"""

from __future__ import annotations

import numpy as np


def Rng(seed=None):
    """Deterministic random source: same seed, same PCG64 stream, any
    platform. One generator drives all randomness of a run (init,
    shuffling, dropout) and is never shared between concurrent consumers.

    numpy.random is imported on the first call, not with this module, so
    a command that draws no random number (eval, predict) never pays for
    loading it.
    """
    return np.random.default_rng(seed)


class ZeroInit:
    """Init source whose every draw is zero.

    Handing it to a parameter constructor builds a zero twin of the seeded
    model (gradients, velocity, the shell a checkpoint fills) without
    drawing a random number.
    """

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        return np.zeros(shape)


def softmax_stable(v, axis: int = -1):
    """Softmax along axis, with max-subtraction so large finite inputs
    never overflow.

    Entries of -inf (used for masking) come out exactly zero; every slice
    along axis needs at least one finite entry. A NaN entry is a numerical
    fault, not a usage error, and raises FloatingPointError.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    hi = np.max(v, axis=axis, keepdims=True)
    if np.isnan(hi).any():
        raise FloatingPointError("softmax input holds NaN")
    if not np.isfinite(hi).all():
        raise ValueError("softmax input has no finite entry")
    e = np.exp(v - hi)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(x, out):
    """Logistic function as 0.5 * tanh(x / 2) + 0.5: one tanh, no exp to
    overflow on either tail. out (x itself allowed) takes the result."""
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


tanh = np.tanh


def uniform_init(rng: Rng, *shape: int) -> np.ndarray:
    """i.i.d. U(-0.1, 0.1) entries, the init range of every weight matrix and
    embedding row; deterministic given the rng."""
    return rng.uniform(-0.1, 0.1, shape)
