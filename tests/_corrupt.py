"""Wrong analytic gradients, so tests can prove gradcheck flags them.

Gradcheck has no corruption hook of its own: a test swaps
`ian.gradcheck.loss_and_grads` for a wrapper that damages the gradient the
real backward pass adds into a GradSet. Only the analytic call is given
one; the numeric objective's forward-only calls pass through untouched.
Wrappers stack: each call doubles its own arrays on top of the last.
"""

import ian.gradcheck
from ian.gradcheck import group_of


def _double(monkeypatch, picked) -> None:
    """Make every analytic gradient array whose name picked accepts twice
    its true value."""
    real = ian.gradcheck.loss_and_grads

    def doubled(*args, grads=None, **kwargs):
        loss = real(*args, grads=grads, **kwargs)
        if grads is not None:
            for name, arr in grads.named_arrays():
                if picked(name):
                    arr *= 2.0
        return loss

    monkeypatch.setattr(ian.gradcheck, "loss_and_grads", doubled)


def double_group(monkeypatch, group: str) -> None:
    """Make every analytic gradient of one group twice its true value."""
    _double(monkeypatch, lambda name: group_of(name) == group)


def double_array(monkeypatch, array: str) -> None:
    """Make the analytic gradient of one array ("ctx_attn.b_a") twice its
    true value."""
    _double(monkeypatch, lambda name: name == array)
