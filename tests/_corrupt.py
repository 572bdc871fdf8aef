"""Wrong analytic gradients, so tests can prove gradcheck flags them.

Gradcheck has no corruption hook of its own: a test swaps
`ian.gradcheck.loss_and_grads` for a wrapper that damages the gradient the
real backward pass adds into a GradSet. Only the analytic call is given
one; the numeric objective's forward-only calls pass through untouched.
Wrappers stack: each call damages its own arrays on top of the last.
"""

import numpy as np

import ian.gradcheck
from ian.gradcheck import group_of


def _damage(monkeypatch, picked, edit) -> None:
    """Apply edit in place to every analytic gradient array whose name
    picked accepts."""
    real = ian.gradcheck.loss_and_grads

    def damaged(*args, grads=None, **kwargs):
        loss = real(*args, grads=grads, **kwargs)
        if grads is not None:
            for name, arr in grads.named_arrays():
                if picked(name):
                    edit(arr)
        return loss

    monkeypatch.setattr(ian.gradcheck, "loss_and_grads", damaged)


def _twice(arr) -> None:
    arr *= 2.0


def double_group(monkeypatch, group: str) -> None:
    """Make every analytic gradient of one group twice its true value."""
    _damage(monkeypatch, lambda name: group_of(name) == group, _twice)


def double_array(monkeypatch, array: str) -> None:
    """Make the analytic gradient of one array ("ctx_attn.b_a") twice its
    true value."""
    _damage(monkeypatch, lambda name: name == array, _twice)


def shift_coordinate(monkeypatch, array: str, index: tuple, share: float) -> None:
    """Add share of the largest |analytic gradient| of one array to one of
    its coordinates, leaving every other coordinate true."""

    def shift(arr):
        arr[index] += share * np.abs(arr).max()

    _damage(monkeypatch, lambda name: name == array, shift)
