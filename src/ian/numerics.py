"""Dense numeric primitives shared by every layer.

Vectors are 1-D and matrices 2-D row-major numpy arrays of the model's dtype
(its embedding table's), kept by every function here. Elementwise add/mul and
scalar ops are numpy's native operators; this module adds the pieces that need
shape checks, numerical stabilization, or seeded determinism.
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


def softmax_stable(v, axis: int = -1):
    """Softmax along axis, with max-subtraction so large finite inputs
    never overflow.

    Entries of -inf (used for masking) come out exactly zero; every slice
    along axis needs at least one finite entry. A NaN entry is a numerical
    fault, not a usage error, and raises FloatingPointError.
    """
    v = np.asarray(v)
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


def uniform_init(rng: Rng | None, out: np.ndarray) -> np.ndarray:
    """Fill out in place with i.i.d. U(-0.1, 0.1) entries, the init range of
    every weight matrix and embedding row, drawn in float64, and return it.
    With rng None, zero it: a constructor given no rng builds a zero twin."""
    out[...] = 0.0 if rng is None else rng.uniform(-0.1, 0.1, out.shape)
    return out
