"""Wrong analytic gradients, so tests can prove gradcheck flags them.

Gradcheck has no corruption hook of its own: a test swaps
`ian.gradcheck.loss_and_grads` for a wrapper that damages what the real
backward pass returns.
"""

import ian.gradcheck
from ian.gradcheck import group_of


def double_group(monkeypatch, group: str) -> None:
    """Make every analytic gradient of one group twice its true value."""
    real = ian.gradcheck.loss_and_grads

    def doubled(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        for name, arr in grads.named_arrays():
            if group_of(name) == group:
                arr *= 2.0
        return loss, grads

    monkeypatch.setattr(ian.gradcheck, "loss_and_grads", doubled)
