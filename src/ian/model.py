"""Model variants for aspect-level sentiment classification.

The full model ("ian") encodes the sentence and the aspect term with two
LSTMs, averages each side, attends each sequence with the other side's
average as the query, concatenates the two pooled vectors and classifies
with a tanh layer plus softmax.

The ablations reuse those parts. ROUTES below is the single declaration of
how each of them is wired: the target side's encoder, and which side's
average queries each attention (None pools that side by its plain mean).

  no_target       one LSTM over the sentence, attended with the average of
                  the raw target word embeddings; classifier sees only the
                  pooled sentence vector.
  no_interaction  both LSTMs, but each side is attended by its own average
                  instead of the other side's.
  target2content  sentence attended by the target average; the target side
                  contributes its plain LSTM average, unattended.
  lstm_avg        one LSTM over the sentence, mean-pooled, no attention.

Two baselines are built differently and keep their own code paths:

  td_lstm         two LSTMs meeting at the target: left-to-right up to the
                  end of the target span, right-to-left down to its start;
                  final hidden states are concatenated.
  majority        predicts the training label distribution, ignoring text.

Class order everywhere: positive=0, neutral=1, negative=2.
"""

from __future__ import annotations

import json
import zipfile
from typing import NamedTuple

import numpy as np

from .attention import AttentionParams, attend
from .embeddings import PAD_INDEX, PAD_TOKEN, Vocabulary, lookup, random_embeddings
from .lstm import LstmParams, lstm_forward
from .numerics import Rng, ZeroInit, softmax_stable, tanh, uniform_init

LABELS = ("positive", "neutral", "negative")
LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}


class Route(NamedTuple):
    """How one variant wires the shared parts.

    target is the target side's encoder: "lstm", "embed" (the raw word
    vectors) or None (no target side). ctx_query and tgt_query name the
    side, "ctx" or "tgt", whose average queries that side's attention;
    None pools the side by its plain mean instead. The target side joins
    the classifier input only when it has its own LSTM.
    """

    target: str | None
    ctx_query: str | None
    tgt_query: str | None


ROUTES = {
    "ian": Route("lstm", ctx_query="tgt", tgt_query="ctx"),
    "no_target": Route("embed", ctx_query="tgt", tgt_query=None),
    "no_interaction": Route("lstm", ctx_query="ctx", tgt_query="tgt"),
    "target2content": Route("lstm", ctx_query="tgt", tgt_query=None),
    "lstm_avg": Route(None, ctx_query=None, tgt_query=None),
}

VARIANTS = (*ROUTES, "td_lstm", "majority")

CHECKPOINT_FORMAT = 1

# constructor arguments that, with the vocabulary, fix which arrays a model
# has, their shapes and which are tied; a checkpoint's meta records them
LAYOUT = ("variant", "tie_attention", "embed_dim", "hidden_dim", "n_classes")


def feature_sides(route: Route):
    """(side, query side) per pooled vector of the classifier input, in
    concatenation order."""
    if route.target == "lstm":
        return (("ctx", route.ctx_query), ("tgt", route.tgt_query))
    return (("ctx", route.ctx_query),)


class ModelParams:
    """All trainable arrays for one variant, plus the vocabulary.

    Construction draws from the rng in a fixed order (embeddings, context
    LSTM, target LSTM, context attention, target attention, classifier),
    so a given seed and configuration always yields the same model. Given
    a numerics.ZeroInit instead, it builds the same arrays, fused views
    and attention tie, all zero.
    """

    def __init__(
        self,
        rng: Rng,
        vocab: Vocabulary,
        variant: str = "ian",
        embed_dim: int = 300,
        hidden_dim: int = 300,
        n_classes: int = len(LABELS),
        tie_attention: bool = False,
        embeddings=None,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        route = ROUTES.get(variant)
        if tie_attention and (route is None or route.tgt_query is None):
            raise ValueError(f"variant {variant!r} has no second attention to tie")
        self.variant = variant
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.n_classes = n_classes
        self.tie_attention = tie_attention

        self.embeddings = None
        self.ctx_lstm = None
        self.tgt_lstm = None
        self.ctx_attn = None
        self.tgt_attn = None
        self.W_l = None
        self.b_l = None
        self.class_priors = None

        if variant == "majority":
            self.class_priors = np.full(n_classes, 1.0 / n_classes)
            return

        if embeddings is not None:
            embeddings = np.asarray(embeddings, dtype=np.float64)
            if embeddings.shape != (len(vocab), embed_dim):
                raise ValueError(
                    f"embedding table shape {embeddings.shape} does not match "
                    f"vocab {len(vocab)} x dim {embed_dim}"
                )
            self.embeddings = embeddings.copy()
            self.embeddings[PAD_INDEX] = 0.0
        else:
            self.embeddings = random_embeddings(rng, vocab, embed_dim)

        self.ctx_lstm = LstmParams(rng, embed_dim, hidden_dim)
        if route is None or route.target == "lstm":  # td_lstm has no route, two LSTMs
            self.tgt_lstm = LstmParams(rng, embed_dim, hidden_dim)
        if route is not None:
            # an average of raw target embeddings is embed_dim wide, so the
            # score matrix it queries is hidden_dim x embed_dim
            query_dim = {"ctx": hidden_dim,
                         "tgt": embed_dim if route.target == "embed" else hidden_dim}
            if route.ctx_query is not None:
                self.ctx_attn = AttentionParams(rng, hidden_dim, query_dim[route.ctx_query])
            if tie_attention:
                self.tgt_attn = self.ctx_attn
            elif route.tgt_query is not None:
                self.tgt_attn = AttentionParams(rng, hidden_dim, query_dim[route.tgt_query])

        feat = self.feature_dim()
        self.W_l = uniform_init(rng, n_classes, feat)
        self.b_l = np.zeros(n_classes)

    def layout(self) -> dict:
        return {key: getattr(self, key) for key in LAYOUT}

    def feature_dim(self) -> int:
        route = ROUTES.get(self.variant)
        parts = 2 if route is None else len(feature_sides(route))  # td_lstm: 2
        return parts * self.hidden_dim

    def named_arrays(self, trainable_only: bool = True):
        """Yield (name, array) for every distinct parameter array.

        Tied attention arrays appear once, under the context name.
        """
        if self.embeddings is not None:
            yield "embeddings", self.embeddings
        if self.ctx_lstm is not None:
            yield from self.ctx_lstm.named_arrays("ctx_lstm.")
        if self.tgt_lstm is not None:
            yield from self.tgt_lstm.named_arrays("tgt_lstm.")
        if self.ctx_attn is not None:
            yield from self.ctx_attn.named_arrays("ctx_attn.")
        if self.tgt_attn is not None and self.tgt_attn is not self.ctx_attn:
            yield from self.tgt_attn.named_arrays("tgt_attn.")
        if self.W_l is not None:
            yield "W_l", self.W_l
            yield "b_l", self.b_l
        if not trainable_only and self.class_priors is not None:
            yield "class_priors", self.class_priors

    def weight_matrix_names(self):
        """Names of the arrays subject to weight decay (2-D maps only:
        no biases, and embeddings are handled row-wise elsewhere)."""
        return [
            name
            for name, arr in self.named_arrays()
            if arr.ndim == 2 and name != "embeddings"
        ]


def masked_mean(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean over the rows where mask is True."""
    count = int(mask.sum())
    if count == 0:
        raise ValueError("masked_mean over an empty selection")
    return rows[mask].sum(axis=0) / count


def _classify(params: ModelParams, features: np.ndarray, dropout_mask, trace: dict):
    if dropout_mask is not None:
        dropped = features * dropout_mask
    else:
        dropped = features
    x = tanh(params.W_l @ dropped + params.b_l)
    probs = softmax_stable(x)
    trace.update(
        features=features, dropout_mask=dropout_mask, dropped=dropped, x=x, probs=probs
    )
    return probs


def forward(params: ModelParams, ctx_idx, tgt_idx, span=None, dropout_mask=None):
    """Run one instance through the model.

    ctx_idx / tgt_idx are int index arrays (padding index 0 allowed and
    masked out); span is the (start, end) token range of the target inside
    the context, needed only by td_lstm. dropout_mask, when given, is a
    feature_dim vector multiplied onto the classifier input (training
    only). Returns (probs, trace).
    """
    variant = params.variant
    if variant == "majority":
        return params.class_priors.copy(), {"variant": variant}

    ctx_idx = np.asarray(ctx_idx, dtype=np.int64)
    tgt_idx = np.asarray(tgt_idx, dtype=np.int64)
    trace = {"variant": variant, "ctx_idx": ctx_idx, "tgt_idx": tgt_idx, "span": span}
    ctx_emb = lookup(params.embeddings, ctx_idx)

    if variant == "td_lstm":
        if span is None:
            raise ValueError("td_lstm needs the target span inside the context")
        start, end = span
        left = ctx_emb[:end]
        right = ctx_emb[start:][::-1]
        left_h, left_trace = lstm_forward(params.ctx_lstm, left)
        right_h, right_trace = lstm_forward(params.tgt_lstm, right)
        features = np.concatenate([left_h[-1], right_h[-1]])
        trace.update(ctx_emb=ctx_emb, left_trace=left_trace, right_trace=right_trace,
                     left_len=left.shape[0], right_len=right.shape[0])
        probs = _classify(params, features, dropout_mask, trace)
        return probs, trace

    route = ROUTES[variant]
    ctx_h, trace["ctx_lstm_trace"] = lstm_forward(params.ctx_lstm, ctx_emb)
    states = {"ctx": ctx_h}
    masks = {"ctx": ctx_idx != PAD_INDEX}
    if route.target is not None:
        masks["tgt"] = tgt_idx != PAD_INDEX
        states["tgt"] = lookup(params.embeddings, tgt_idx)
        if route.target == "lstm":
            states["tgt"], trace["tgt_lstm_trace"] = lstm_forward(params.tgt_lstm, states["tgt"])
    avgs = {side: masked_mean(states[side], masks[side]) for side in states}
    trace.update(states=states, masks=masks)

    pooled = []
    for side, query in feature_sides(route):
        if query is None:
            vec = avgs[side]
        else:
            vec, trace[f"{side}_weights"], trace[f"{side}_attn_trace"] = attend(
                getattr(params, f"{side}_attn"), states[side], avgs[query], masks[side])
        pooled.append(vec)
    probs = _classify(params, np.concatenate(pooled), dropout_mask, trace)
    return probs, trace


def touched_rows(ctx_idx, tgt_idx) -> np.ndarray:
    """Distinct non-pad embedding rows an instance reads."""
    both = np.concatenate([np.asarray(ctx_idx), np.asarray(tgt_idx)])
    rows = np.unique(both)
    return rows[rows != PAD_INDEX]


def save_checkpoint(path: str, params: ModelParams, config: dict | None = None):
    """Write every parameter array plus a json metadata record to one npz."""
    arrays = {name: arr for name, arr in params.named_arrays(trainable_only=False)}
    meta = {
        "format": CHECKPOINT_FORMAT,
        **params.layout(),
        "vocab": list(params.vocab.tokens) if params.embeddings is not None else [],
        "config": config or {},
    }
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def load_checkpoint(path: str):
    """Rebuild (params, meta) from a checkpoint written by save_checkpoint.

    A file that cannot be read as one (not a zip archive, truncated, no
    or bad metadata, missing or misshapen arrays, a zip entry flagged as
    encrypted or stored by an unsupported method or version) raises one
    ValueError naming the path and the cause. The shell the arrays are
    read into is built from a zero init source: loading draws no random
    numbers.
    """
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not a zip archive (truncated, or not an npz file)")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                return _params_from_npz(data)
    except (ValueError, KeyError, TypeError, EOFError, OSError, zipfile.BadZipFile,
            NotImplementedError, RuntimeError) as err:
        raise ValueError(f"cannot load checkpoint {path}: {err}") from None


def _params_from_npz(data):
    if "__meta__" not in data.files:
        raise ValueError("no __meta__ record")
    try:
        meta = json.loads(str(data["__meta__"]))
    except json.JSONDecodeError as err:
        raise ValueError(f"__meta__ is not valid JSON ({err})") from None
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format: {fmt!r}")
    tokens = meta["vocab"]
    if tokens:
        if tokens[0] != PAD_TOKEN:
            raise ValueError("checkpoint vocabulary does not start with the pad token")
        vocab = Vocabulary(tokens[1:])
    else:
        vocab = Vocabulary()
    params = ModelParams(ZeroInit(), vocab, **{key: meta[key] for key in LAYOUT})
    for name, arr in params.named_arrays(trainable_only=False):
        if name not in data:
            raise ValueError(f"checkpoint is missing array {name!r}")
        stored = data[name]
        if stored.shape != arr.shape:
            raise ValueError(
                f"checkpoint array {name!r} has shape {stored.shape}, expected {arr.shape}"
            )
        arr[...] = stored
    return params, meta
