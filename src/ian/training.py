"""Loss, hand-derived backward pass, and momentum SGD training.

The per-case loss is cross-entropy plus an L2 penalty on every 2-D weight
matrix and on the embedding rows the case actually reads; biases and the
pad row are never penalized. A batch's gradient is the average of its
per-case gradients, so batch size 1 reproduces plain per-case updates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .attention import attention_backward
from .embeddings import PAD_INDEX
from .evaluate import evaluate_model
from .lstm import lstm_backward
from .model import ROUTES, ModelParams, feature_sides, forward, touched_rows
from .numerics import Rng, ZeroInit


class GradSet(ModelParams):
    """Zero twin of a model, for gradients and momentum velocity.

    Built by ModelParams' own constructor from an all-zero init source, so
    it has the model's component attributes (for the layer backward
    functions), its fused LSTM storage with the per-gate views, and its
    attention tie: when the model ties its two attentions, both backward
    calls accumulate into the same arrays. Flat named iteration serves the
    optimizer and the checks.
    """

    def __init__(self, params: ModelParams):
        super().__init__(ZeroInit(), params.vocab, **params.layout())
        self._by_name = dict(self.named_arrays())

    def arrays(self):
        return self.named_arrays()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._by_name[name]

    def zero(self):
        for arr in self._by_name.values():
            arr[...] = 0.0

    def scale(self, factor: float):
        for arr in self._by_name.values():
            arr *= factor

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self._by_name.values())))


def dropout_mask(rng: Rng, dim: int, rate: float):
    """Inverted-dropout mask: zero with probability rate, else 1/(1-rate).

    Returns None for rate 0 so evaluation paths stay untouched.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    keep = rng.random(dim) >= rate
    return keep / (1.0 - rate)


def cross_entropy(probs: np.ndarray, label: int) -> float:
    p = float(probs[label])
    if p < 1e-12:
        warnings.warn(f"gold-class probability {p} clamped to 1e-12 before log")
        p = 1e-12
    return -np.log(p)


def l2_penalty(params: ModelParams, rows: np.ndarray, l2: float) -> float:
    """l2 * (sum of squared weight-matrix entries + squared touched rows)."""
    if l2 == 0.0:
        return 0.0
    named = dict(params.named_arrays())
    total = sum(float(np.sum(named[n] ** 2)) for n in params.weight_matrix_names())
    if rows.size:
        total += float(np.sum(params.embeddings[rows] ** 2))
    return l2 * total


def _add_l2_grads(params: ModelParams, rows: np.ndarray, l2: float, grads: GradSet):
    if l2 == 0.0:
        return
    named = dict(params.named_arrays())
    for name in params.weight_matrix_names():
        grad = grads[name]
        grad += 2.0 * l2 * named[name]
    if rows.size:
        grads.embeddings[rows] += 2.0 * l2 * params.embeddings[rows]


def _mean_backward(d_avg: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gradient of a masked mean, spread evenly over the selected rows."""
    out = np.zeros((mask.shape[0], d_avg.shape[0]))
    out[mask] = d_avg / int(mask.sum())
    return out


def _accumulate(total: dict, key: str, grad: np.ndarray):
    total[key] = total[key] + grad if key in total else grad


def _scatter_embedding_grads(table_grads, idx, d_emb):
    real = idx != PAD_INDEX
    np.add.at(table_grads, idx[real], d_emb[real])


def backward(params: ModelParams, trace: dict, label: int, grads: GradSet):
    """Accumulate d(cross-entropy)/d(parameters) for one traced forward."""
    variant = trace["variant"]
    if variant == "majority":
        raise ValueError("the majority baseline has no gradients")

    probs = trace["probs"]
    x = trace["x"]
    dx = probs.copy()
    dx[label] -= 1.0
    dz = dx * (1.0 - x**2)
    grads.W_l += np.outer(dz, trace["dropped"])
    grads.b_l += dz
    dd = params.W_l.T @ dz
    if trace["dropout_mask"] is not None:
        dd = dd * trace["dropout_mask"]

    dh = params.hidden_dim
    if variant == "td_lstm":
        d_left_h = np.zeros((trace["left_len"], dh))
        d_left_h[-1] = dd[:dh]
        d_right_h = np.zeros((trace["right_len"], dh))
        d_right_h[-1] = dd[dh:]
        d_left = lstm_backward(params.ctx_lstm, trace["left_trace"], d_left_h, grads.ctx_lstm)
        d_right = lstm_backward(params.tgt_lstm, trace["right_trace"], d_right_h, grads.tgt_lstm)
        start, end = trace["span"]
        d_ctx_emb = np.zeros_like(trace["ctx_emb"])
        d_ctx_emb[:end] += d_left
        d_ctx_emb[start:] += d_right[::-1]
        _scatter_embedding_grads(grads.embeddings, trace["ctx_idx"], d_ctx_emb)
        return

    # mirror of the routed part of model.forward: pooled vectors back to
    # the side states and to the averages they were built from
    route = ROUTES[variant]
    masks = trace["masks"]
    d_states, d_avgs = {}, {}
    for k, (side, query) in enumerate(feature_sides(route)):
        d_pooled = dd[k * dh:(k + 1) * dh]
        if query is None:
            _accumulate(d_avgs, side, d_pooled)
        else:
            d_states[side], d_query = attention_backward(
                getattr(params, f"{side}_attn"), trace[f"{side}_attn_trace"],
                d_pooled, getattr(grads, f"{side}_attn"),
            )
            _accumulate(d_avgs, query, d_query)
    for side, d_avg in d_avgs.items():
        _accumulate(d_states, side, _mean_backward(d_avg, masks[side]))
    for side in masks:  # context first, as in forward
        d_emb = d_states[side]
        if side == "ctx" or route.target == "lstm":
            d_emb = lstm_backward(getattr(params, f"{side}_lstm"), trace[f"{side}_lstm_trace"],
                                  d_emb, getattr(grads, f"{side}_lstm"))
        _scatter_embedding_grads(grads.embeddings, trace[f"{side}_idx"], d_emb)


def case_loss(params: ModelParams, ctx_idx, tgt_idx, span, label,
              l2: float = 0.0, drop_mask=None) -> float:
    """Scalar training loss of one case; the quantity the gradients match."""
    probs, _ = forward(params, ctx_idx, tgt_idx, span=span, dropout_mask=drop_mask)
    rows = touched_rows(ctx_idx, tgt_idx)
    return cross_entropy(probs, label) + l2_penalty(params, rows, l2)


def loss_and_grads(params: ModelParams, ctx_idx, tgt_idx, span, label,
                   l2: float = 0.0, drop_mask=None, grads: GradSet | None = None):
    """Forward + backward for one case. Accumulates into grads if given."""
    if grads is None:
        grads = GradSet(params)
    probs, trace = forward(params, ctx_idx, tgt_idx, span=span, dropout_mask=drop_mask)
    backward(params, trace, label, grads)
    rows = touched_rows(ctx_idx, tgt_idx)
    _add_l2_grads(params, rows, l2, grads)
    loss = cross_entropy(probs, label) + l2_penalty(params, rows, l2)
    return loss, grads


def momentum_step(params: ModelParams, grads: GradSet, velocity: GradSet,
                  lr: float, momentum: float):
    """Classical momentum: v <- momentum*v + lr*g; theta <- theta - v."""
    for (name, p_arr), (_, g_arr), (_, v_arr) in zip(
        params.named_arrays(), grads.arrays(), velocity.arrays()
    ):
        v_arr *= momentum
        v_arr += lr * g_arr
        p_arr -= v_arr


@dataclass
class TrainConfig:
    epochs: int = 25
    learning_rate: float = 0.01
    momentum: float = 0.9
    l2: float = 1e-5
    dropout: float = 0.5
    batch_size: int = 32
    seed: int = 0
    clip_norm: float | None = None
    freeze_embeddings: bool = False
    shuffle: bool = True

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def fit_majority(params: ModelParams, instances):
    labels = np.array([inst.label for inst in instances])
    counts = np.bincount(labels, minlength=params.n_classes).astype(float)
    params.class_priors[...] = counts / counts.sum()


def train(params: ModelParams, instances, config: TrainConfig, rng: Rng,
          eval_instances=None, log=None):
    """Train in place; returns a per-epoch history of loss and accuracy.

    All randomness (shuffling, dropout) comes from rng, so a fixed seed
    and configuration reproduce the run bit for bit.
    """
    if params.variant == "majority":
        fit_majority(params, instances)
        entry = {"epoch": 0, "loss": float("nan"),
                 "train_acc": evaluate_model(params, instances).accuracy}
        if eval_instances:
            entry["eval_acc"] = evaluate_model(params, eval_instances).accuracy
        if log:
            log(f"majority priors {params.class_priors.round(4).tolist()} "
                f"train_acc {entry['train_acc']:.4f}")
        return [entry]

    feat = params.feature_dim()
    grads = GradSet(params)
    velocity = GradSet(params)
    history = []
    n = len(instances)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        total_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            grads.zero()
            for j in batch:
                inst = instances[j]
                mask = dropout_mask(rng, feat, config.dropout)
                loss, _ = loss_and_grads(
                    params, inst.context_ids, inst.target_ids, inst.span,
                    inst.label, l2=config.l2, drop_mask=mask, grads=grads,
                )
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"loss became {loss} at epoch {epoch}, instance {j}"
                    )
                total_loss += loss
            grads.scale(1.0 / len(batch))
            if config.freeze_embeddings and grads.embeddings is not None:
                grads.embeddings[...] = 0.0
            if config.clip_norm is not None:
                norm = grads.global_norm()
                if norm > config.clip_norm:
                    grads.scale(config.clip_norm / norm)
            momentum_step(params, grads, velocity, config.learning_rate,
                          config.momentum)
        entry = {"epoch": epoch, "loss": total_loss / n,
                 "train_acc": evaluate_model(params, instances).accuracy}
        if eval_instances:
            entry["eval_acc"] = evaluate_model(params, eval_instances).accuracy
        history.append(entry)
        if log:
            msg = (f"epoch {epoch:3d}  loss {entry['loss']:.4f}  "
                   f"train_acc {entry['train_acc']:.4f}")
            if eval_instances:
                msg += f"  eval_acc {entry['eval_acc']:.4f}"
            log(msg)
    return history
