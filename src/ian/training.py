"""Loss, gradients (through model.backward) and momentum SGD training.

The per-case loss is cross-entropy plus an L2 penalty on every 2-D weight
matrix and on the embedding rows the case actually reads; biases and the
pad row are never penalized. loss_and_grads is the one batch-loss
function: it runs the batch as the length-sorted chunks of model.chunks
(of CHUNK_ROWS packed rows at most), one forward and (given a GradSet) one
backward pass per chunk, each distinct context through the context LSTM
once, and applies the L2 term once. A batch's gradient is the average of
its per-case gradients, so batch size 1 reproduces plain per-case updates.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import PAD_INDEX
from .evaluate import evaluate_model
from .model import LABELS, ModelParams, backward, chunks, forward
from .numerics import Rng


class GradSet(ModelParams):
    """Zero twin of a model, for gradients and momentum velocity;
    loss_and_grads adds a batch's gradient into one it is given.

    Built by ModelParams' own constructor from a zero table like the model's
    and no rng, so every array is zero, in the model's dtype, and it has its
    component attributes (for the layer backward functions), arrays and
    attention tie: both backward calls of a tied model add into one array.
    grads[name] reads an array by its attribute path ("ctx_lstm.W_x").
    """

    def __init__(self, params: ModelParams):
        table = None if params.embeddings is None else np.zeros_like(params.embeddings)
        super().__init__(None, params.vocab, **params.layout(), embeddings=table)

    def __getitem__(self, name: str) -> np.ndarray:
        return operator.attrgetter(name)(self)

    def zero(self):
        for _, arr in self.named_arrays():
            arr[...] = 0.0

    def scale(self, factor: float):
        for _, arr in self.named_arrays():
            arr *= factor

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(a * a)) for _, a in self.named_arrays())))


def dropout_mask(rng: Rng, shape, rate: float, dtype=np.float64):
    """Inverted-dropout mask of dtype: zero with probability rate, else 1/(1-rate).

    shape is (B, dim), one row per instance of a batch; TrainConfig holds
    rate in [0, 1). Returns None for rate 0 so evaluation paths stay untouched.
    """
    if rate == 0.0:
        return None
    keep = rng.random(shape) >= rate
    return np.divide(keep, 1.0 - rate, dtype=dtype)


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """-log of the gold-class probability, summed over the rows of a
    chunk's probs (B, n_classes) with labels (B,): a scalar of probs' dtype."""
    gold = probs[np.arange(len(probs)), labels]
    if gold.min() < 1e-12:
        warnings.warn(f"gold-class probability {gold.min()} clamped to 1e-12 before log")
        gold = np.maximum(gold, 1e-12)
    return -np.log(gold).sum()


def _l2_term(params: ModelParams, cases, l2: float, grads: GradSet | None):
    """L2 penalty of a batch of cases; its gradient is added into grads if given.

    Each case pays l2 times the squared entries of every 2-D weight map
    except the embedding table (so no bias), and the squared embedding rows
    it reads: the distinct non-pad ids of its context and target. A row
    read by k cases is penalized k times. The sum is in the model's dtype.
    """
    if l2 == 0.0:
        return 0.0
    rows = [row for case in cases for row in set(case.context_ids) | set(case.target_ids)]
    counts = np.bincount(np.array(rows, dtype=np.int64), minlength=len(params.embeddings))
    counts[PAD_INDEX] = 0
    hit = np.flatnonzero(counts)
    table = params.embeddings[hit]
    weights = counts[hit][:, None].astype(table.dtype)
    total = np.sum(weights * table**2)
    for name, arr in params.named_arrays():
        if arr.ndim != 2 or name == "embeddings":
            continue
        total += len(cases) * np.sum(arr**2)
        if grads is not None:
            grad = grads[name]
            grad += (2.0 * l2 * len(cases)) * arr
    if grads is not None:
        grads.embeddings[hit] += (2.0 * l2) * weights * table
    return l2 * total


def loss_and_grads(params: ModelParams, cases, l2: float = 0.0, drop_masks=None,
                   grads: GradSet | None = None, chunk_rows: int | None = None):
    """Training loss of a batch of cases; its gradient is added into grads
    if given, and without grads no backward pass runs.

    cases are instances (context_ids, target_ids, span, label); they run in
    the length-sorted chunks of model.chunks (chunk_rows overrides its
    budget), one forward and, with grads, one backward pass per chunk.
    drop_masks, when given, holds one dropout mask row per case. The loss
    is the sum of the per-case losses, cross-entropy plus the L2 penalty;
    the L2 term is applied once for the whole batch. Returns the sum's .item()
    in the model's dtype: a float (0.0 for no case), a complex for a
    complex128 model (gradcheck's twin), or an np.longdouble.
    """
    labels = np.array([case.label for case in cases])
    loss = 0.0
    for pos, ctx_idx, tgt_idx, layout in chunks(cases, chunk_rows):
        masks = None if drop_masks is None else drop_masks[pos]
        probs, trace = forward(params, ctx_idx, tgt_idx, dropout_mask=masks, **layout)
        if grads is not None:
            backward(params, trace, labels[pos], grads)
        del trace  # free this chunk's activations before the next forward
        loss += cross_entropy(probs, labels[pos])
    return np.add(loss, _l2_term(params, cases, l2, grads)).item()


def momentum_step(params: ModelParams, grads: GradSet, velocity: GradSet,
                  lr: float, momentum: float):
    """Classical momentum: v <- momentum*v + lr*g; theta <- theta - v."""
    for (name, p_arr), (_, g_arr), (_, v_arr) in zip(
        params.named_arrays(), grads.named_arrays(), velocity.named_arrays()
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
        # every comparison is False for NaN
        for name, ok, rule in (
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("learning_rate", 0.0 <= self.learning_rate < np.inf, "finite and >= 0"),
            ("momentum", -np.inf < self.momentum < np.inf, "finite"),
            ("l2", 0.0 <= self.l2 < np.inf, "finite and >= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("clip_norm", self.clip_norm is None or 0.0 < self.clip_norm < np.inf,
             "None or finite and > 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


def _first_non_finite(params: ModelParams, grads: GradSet) -> str:
    """Names the first array holding a non-finite entry, parameters before
    gradients, each in named_arrays order; empty when all are finite."""
    for kind, arrays in (("parameter", params.named_arrays()),
                         ("gradient", grads.named_arrays())):
        for name, arr in arrays:
            if not np.isfinite(arr).all():
                return f"; first non-finite {kind}: {name}"
    return ""


def fit_majority(params: ModelParams, instances):
    labels = np.array([inst.label for inst in instances])
    counts = np.bincount(labels, minlength=len(LABELS)).astype(float)
    params.class_priors[...] = counts / counts.sum()


def _scores(params: ModelParams, instances, eval_instances) -> dict:
    """Train accuracy and, given eval instances, eval accuracy with its
    full report, for one history entry."""
    entry = {"train_acc": evaluate_model(params, instances).accuracy}
    if eval_instances:
        report = evaluate_model(params, eval_instances)
        entry.update(eval_acc=report.accuracy, eval_report=report)
    return entry


def train(params: ModelParams, instances, config: TrainConfig, rng: Rng,
          eval_instances=None, log=None):
    """Train in place on a non-empty list of instances; returns a per-epoch
    history of loss and accuracy.

    Given eval instances, each entry also holds the eval set's EvalReport
    (eval_report). All randomness (shuffling, dropout) comes from rng, so
    a fixed seed and configuration reproduce the run bit for bit.
    """
    if params.variant == "majority":
        fit_majority(params, instances)
        entry = {"epoch": 0, "loss": float("nan"), **_scores(params, instances, eval_instances)}
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
            batch = [instances[j] for j in order[lo:lo + config.batch_size]]
            masks = dropout_mask(rng, (len(batch), feat), config.dropout, params.embeddings.dtype)
            grads.zero()
            try:
                loss = loss_and_grads(params, batch, l2=config.l2, drop_masks=masks,
                                      grads=grads)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"loss became {loss}")
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"{err} at epoch {epoch}, batch {lo // config.batch_size + 1}"
                    f"{_first_non_finite(params, grads)}"
                ) from None
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
                 **_scores(params, instances, eval_instances)}
        history.append(entry)
        if log:
            msg = (f"epoch {epoch:3d}  loss {entry['loss']:.4f}  "
                   f"train_acc {entry['train_acc']:.4f}")
            if eval_instances:
                msg += f"  eval_acc {entry['eval_acc']:.4f}"
            log(msg)
    return history
