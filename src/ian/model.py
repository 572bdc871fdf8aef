"""Model variants for aspect-level sentiment classification, and their
forward and backward passes.

The full model ("ian") encodes the sentence and the aspect term with two
LSTMs, averages each side, attends each sequence with the other side's
average as the query, concatenates the two pooled vectors and classifies
with a tanh layer plus softmax.

The ablations and the TD-LSTM baseline reuse those parts. ROUTES below is
the single declaration of how each of them is wired: the target side's
encoder, and how each side is pooled into the classifier input. One
forward pass and one backward pass serve them all.

  no_target       one LSTM over the sentence, attended with the average of
                  the raw target word embeddings; classifier sees only the
                  pooled sentence vector.
  no_interaction  both LSTMs, but each side is attended by its own average
                  instead of the other side's.
  target2content  sentence attended by the target average; the target side
                  contributes its plain LSTM average, unattended.
  lstm_avg        one LSTM over the sentence, mean-pooled, no attention.
  td_lstm         two LSTMs meeting at the target: left-to-right up to the
                  end of the target span, right-to-left down to its start;
                  final hidden states are concatenated.

One baseline is built differently and keeps its own code path:

  majority        predicts the training label distribution, ignoring text.

Class order everywhere: positive=0, neutral=1, negative=2.
"""

from __future__ import annotations

import itertools
import json
import zipfile
from typing import NamedTuple

import numpy as np
from numpy.lib import format as npy_format

from .attention import AttentionParams, attend, attention_backward, pool_matrix
from .embeddings import PAD_INDEX, PAD_TOKEN, Vocabulary, lookup, random_embeddings
from .lstm import LstmParams, lstm_backward, lstm_forward, packing
from .numerics import Rng, ZeroInit, softmax_stable, tanh, uniform_init

LABELS = ("positive", "neutral", "negative")
LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}


class Route(NamedTuple):
    """How one variant wires the shared parts.

    target is the target side's encoder: "lstm", "embed" (the raw word
    vectors), "span" (the context cut at the target span: the context
    side reads up to the span's end, the target side reads reversed down
    to its start, each with its own LSTM) or None (no target side).
    ctx_pool and tgt_pool say how that side becomes a vector of the
    classifier input: "ctx" or "tgt" attends it with that side's average
    as the query, "mean" takes its plain mean and "last" its final state.
    A side without a pool stays out of the classifier input.
    """

    target: str | None
    ctx_pool: str | None
    tgt_pool: str | None


ROUTES = {
    "ian": Route("lstm", ctx_pool="tgt", tgt_pool="ctx"),
    "no_target": Route("embed", ctx_pool="tgt", tgt_pool=None),
    "no_interaction": Route("lstm", ctx_pool="ctx", tgt_pool="tgt"),
    "target2content": Route("lstm", ctx_pool="tgt", tgt_pool="mean"),
    "lstm_avg": Route(None, ctx_pool="mean", tgt_pool=None),
    "td_lstm": Route("span", ctx_pool="last", tgt_pool="last"),
}

VARIANTS = (*ROUTES, "majority")

CHECKPOINT_FORMAT = 1

# the real tokens of distinct contexts a chunk holds, which every packed
# array of its pass grows with: a traced pass keeps its activations for
# backward, a pass that keeps no trace its hidden states only. README.md
# has the measurements behind both figures
CHUNK_TOKENS = 256
NO_TRACE_TOKENS = 512

# constructor arguments that, with the vocabulary, fix which arrays a model
# has, their shapes and which are tied; a checkpoint's meta records them
LAYOUT = ("variant", "tie_attention", "embed_dim", "hidden_dim")

# the components a model's parameter arrays belong to, in construction order
GROUPS = ("embeddings", "ctx_lstm", "tgt_lstm", "ctx_attn", "tgt_attn", "classifier")


def feature_sides(route: Route):
    """(side, pool) per pooled vector of the classifier input, in
    concatenation order."""
    return tuple((side, pool) for side, pool in (("ctx", route.ctx_pool),
                                                  ("tgt", route.tgt_pool))
                 if pool is not None)


class ModelParams:
    """All trainable arrays for one variant, plus the vocabulary.

    Construction draws from the rng in a fixed order (embeddings, context
    LSTM, target LSTM, context attention, target attention, classifier),
    so a given seed and configuration always yields the same model. Given
    a numerics.ZeroInit instead, it builds the same arrays and attention
    tie, all zero. A given embeddings table, as load_pretrained builds it
    (float64, one row per token, pad row zero), is kept and trained in place.
    """

    def __init__(
        self,
        rng: Rng,
        vocab: Vocabulary,
        variant: str,
        embed_dim: int,
        hidden_dim: int,
        tie_attention: bool = False,
        embeddings=None,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        route = ROUTES.get(variant)
        if tie_attention and (route is None or route.tgt_pool not in ("ctx", "tgt")):
            raise ValueError(f"variant {variant!r} has no second attention to tie")
        self.variant = variant
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.tie_attention = tie_attention

        self.embeddings = None
        self.ctx_lstm = None
        self.tgt_lstm = None
        self.ctx_attn = None
        self.tgt_attn = None
        self.W_l = None
        self.b_l = None
        self.class_priors = None

        if route is None:  # majority
            self.class_priors = np.full(len(LABELS), 1.0 / len(LABELS))
            return

        if embeddings is None:
            embeddings = random_embeddings(rng, vocab, embed_dim)
        self.embeddings = embeddings

        self.ctx_lstm = LstmParams(rng, embed_dim, hidden_dim)
        if route.target in ("lstm", "span"):
            self.tgt_lstm = LstmParams(rng, embed_dim, hidden_dim)
        # an average of raw target embeddings is embed_dim wide, so the
        # score matrix it queries is hidden_dim x embed_dim
        query_dim = {"ctx": hidden_dim,
                     "tgt": embed_dim if route.target == "embed" else hidden_dim}
        if route.ctx_pool in query_dim:
            self.ctx_attn = AttentionParams(rng, hidden_dim, query_dim[route.ctx_pool])
        if tie_attention:
            self.tgt_attn = self.ctx_attn
        elif route.tgt_pool in query_dim:
            self.tgt_attn = AttentionParams(rng, hidden_dim, query_dim[route.tgt_pool])

        feat = self.feature_dim()
        self.W_l = uniform_init(rng, len(LABELS), feat)
        self.b_l = np.zeros(len(LABELS))

    def layout(self) -> dict:
        return {key: getattr(self, key) for key in LAYOUT}

    def feature_dim(self) -> int:
        return len(feature_sides(ROUTES[self.variant])) * self.hidden_dim

    def named_arrays(self):
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
        if self.class_priors is not None:
            yield "class_priors", self.class_priors

    def weight_matrix_names(self):
        """Names of the arrays subject to weight decay (2-D maps only:
        no biases, and embeddings are handled row-wise elsewhere)."""
        return [
            name
            for name, arr in self.named_arrays()
            if arr.ndim == 2 and name != "embeddings"
        ]


def mean_matrix(rows: np.ndarray, tokens: int) -> np.ndarray:
    """The (tokens, B) pooling matrix whose column b averages the packed
    rows rows[:, b] names (those >= 0): 1/count on each of them."""
    inside = rows >= 0
    count = inside.sum(axis=0)
    if np.any(count == 0):
        raise ValueError("mean over an empty selection")
    return pool_matrix(rows, inside / count, tokens)


def _classify(params: ModelParams, features: np.ndarray, dropout_mask, trace: dict):
    dropped = features if dropout_mask is None else features * dropout_mask
    x = tanh(dropped @ params.W_l.T + params.b_l)
    probs = softmax_stable(x, axis=-1)
    trace.update(
        features=features, dropout_mask=dropout_mask, dropped=dropped, x=x, probs=probs
    )
    return probs


def forward(params: ModelParams, ctx_idx, tgt_idx, span=None, dropout_mask=None,
            lengths=None, tgt_lengths=None, contexts=None, keep_trace=True):
    """Run a time-major chunk of B instances through the model.

    ctx_idx (n, G) holds G distinct contexts, context g in column g,
    padded after its end with the padding index, lengths (G,) their own
    lengths (default n), and contexts (B,) the column of instance b's
    context, non-decreasing (default: column b). tgt_idx (m, B) holds
    instance b's target, padded likewise, tgt_lengths (B,) their lengths
    (default m). span (B, 2) is each target's token range in its context
    (td_lstm only); dropout_mask (B, feature_dim) scales the classifier
    input (training only). The padding index is masked out of every
    attention and average.

    Returns (probs (B, n_classes), trace). keep_trace False runs a pass
    that asks for no gradient: its LSTMs keep only their hidden states,
    and its trace holds only each attention's (n, B) weights
    (ctx_weights, tgt_weights), or nothing without attention.
    """
    # a 1-D id vector is a chunk of one column: the benchmark's reference
    # probe calls forward this way
    ctx_idx = np.asarray(ctx_idx, dtype=np.int64).reshape(len(ctx_idx), -1)
    tgt_idx = np.asarray(tgt_idx, dtype=np.int64).reshape(len(tgt_idx), -1)
    if params.variant == "majority":
        return np.tile(params.class_priors, (tgt_idx.shape[1], 1)), {}
    n, groups = ctx_idx.shape
    lengths = np.full(groups, n) if lengths is None else np.asarray(lengths)
    tgt_lengths = (np.full(tgt_idx.shape[1], len(tgt_idx)) if tgt_lengths is None
                   else np.asarray(tgt_lengths))
    contexts = np.arange(groups) if contexts is None else np.asarray(contexts)
    route = ROUTES[params.variant]
    trace = {"sides": _sides(route, ctx_idx, tgt_idx, span, lengths, tgt_lengths, contexts)}
    probs = _classify(params, _features(params, route, trace, keep_trace), dropout_mask,
                      trace)
    if not keep_trace:
        trace = {key: trace[key] for key in ("ctx_weights", "tgt_weights") if key in trace}
    return probs, trace


def _sides(route, ctx_idx, tgt_idx, span, lengths, tgt_lengths, contexts):
    """(side, ids, row lengths, gather) per side the route encodes, in the
    order they run. ids is time-major; gather is the ids column of each
    instance: the distinct contexts run once each and serve all their
    instances, and every other side has a column per instance, so a
    target side runs first, its wide steps before the context's states
    exist."""
    if route.target != "span":
        sides = [("ctx", ctx_idx, lengths, contexts)]
        if route.target is not None:
            sides.insert(0, ("tgt", tgt_idx, tgt_lengths, np.arange(len(contexts))))
        return sides
    if span is None:
        raise ValueError("td_lstm needs the target span inside the context")
    # where each side starts depends on the span: one row per instance
    ctx_idx, lengths = ctx_idx[:, contexts], lengths[contexts]
    span = np.asarray(span, dtype=np.int64).reshape(len(contexts), 2)
    # a span reaching past the row's end is cut there, as a slice would be
    start, end = span[:, 0], np.minimum(span[:, 1], lengths)
    rev = lengths - 1 - np.arange(len(ctx_idx))[:(lengths - start).max(), None]
    each = np.arange(len(contexts))
    return [("ctx", ctx_idx[:end.max()], end, each),
            ("tgt", np.take_along_axis(ctx_idx, np.maximum(rev, 0), axis=0),
             lengths - start, each)]


def _features(params, route, trace, keep_trace):
    """Encode each side of trace["sides"], through its LSTM if it has one
    (which reads the word vectors from the table by id), then pool the
    sides the classifier reads into its input (B, feature_dim).

    Each side keeps its states packed, one row per real token of each
    column, a shared context's once. Every pooled vector, and every
    attention query, is P.T @ states for one (tokens, B) pooling matrix P
    of its side: a mean's, a last state's or an attention's weights. A
    traced pass keeps the matrices for backward; a pass that keeps no
    trace keeps only an attention's weights (its matrix and trace took a
    shared-context predict_all from 4.0 to 4.9 MB)."""
    states, rows, lasts = {}, {}, {}
    for side, ids, lens, gather in trace["sides"]:
        lstm = getattr(params, f"{side}_lstm")
        if lstm is None:  # the side's states are its word vectors
            pack = packing(ids, lens)
            trace[f"{side}_ids"], row_of = pack["ids"], pack["row_of"]
            states[side] = lookup(params.embeddings, pack["ids"])
        else:
            states[side], row_of, trace[f"{side}_lstm_trace"] = lstm_forward(
                lstm, ids, params.embeddings, lens, keep_trace)
        # the packed row each instance reads at each position, -1 at a pad
        rows[side] = np.where(ids != PAD_INDEX, row_of, -1)[:, gather]
        lasts[side] = row_of[lens[gather] - 1, gather][None]

    means = {}

    def mean(side):
        if side not in means:
            means[side] = mean_matrix(rows[side], len(states[side]))
        return means[side]

    pools = []

    def pooling(side, pool):
        """One side's pooling matrix, kept in pools by a traced pass."""
        if pool == "last":
            matrix = pool_matrix(lasts[side], np.ones(lasts[side].shape), len(states[side]))
        elif pool == "mean":
            matrix = mean(side)
        else:
            weights, attn_trace = attend(getattr(params, f"{side}_attn"), states[side],
                                         rows[side], mean(pool).T @ states[pool])
            matrix = pool_matrix(rows[side], weights, len(states[side]))
            trace[f"{side}_weights"] = weights
            if keep_trace:
                trace[f"{side}_attn_trace"] = attn_trace
        if keep_trace:
            pools.append(matrix)
        return matrix

    pooled = [pooling(side, pool).T @ states[side] for side, pool in feature_sides(route)]
    trace.update(states=states, pools=pools, means=means)
    return np.concatenate(pooled, axis=1)


def backward(params: ModelParams, trace: dict, labels, grads):
    """Accumulate d(summed cross-entropy)/d(parameters) for one traced
    chunk, labels (B,), into grads (a zero twin of params).

    It replays forward's sides and pools in reverse: each pooled vector
    back to its side's packed states through its pooling matrix (an
    attention's also through its scores, and its query through the
    query side's mean matrix), each side back through its LSTM if it has
    one, onto the embedding rows it read. The product with a pooling
    matrix sums the instances that read one row onto it. Consumes the
    trace: the LSTM backward passes overwrite its gate arrays, and the
    states, matrices and attention traces leave it once read."""
    if params.variant == "majority":
        raise ValueError("the majority baseline has no gradients")

    probs = trace["probs"]
    rows = np.arange(probs.shape[0])
    dz = probs.copy()
    dz[rows, labels] -= 1.0
    dz *= 1.0 - trace["x"] ** 2
    grads.W_l += dz.T @ trace["dropped"]
    grads.b_l += dz.sum(axis=0)
    dd = dz @ params.W_l
    if trace["dropout_mask"] is not None:
        dd *= trace["dropout_mask"]

    dh = params.hidden_dim
    means = trace.pop("means")
    # one gradient per packed row; each activation leaves the trace once
    # read, so the LSTM passes run without the chunk's states alongside
    d_states = {side: np.zeros_like(arr) for side, arr in trace.pop("states").items()}
    for k, ((side, pool), matrix) in enumerate(zip(feature_sides(ROUTES[params.variant]),
                                                   trace.pop("pools"))):
        d_pooled = dd[:, k * dh:(k + 1) * dh]
        d_states[side] += matrix @ d_pooled
        if pool in ("ctx", "tgt"):  # attention: its scores, then its query's mean
            d_scored, d_query = attention_backward(
                getattr(params, f"{side}_attn"), trace.pop(f"{side}_attn_trace"),
                d_pooled, getattr(grads, f"{side}_attn"),
            )
            d_states[side] += d_scored
            d_states[pool] += means[pool] @ d_query
    for side, *_ in reversed(trace["sides"]):
        lstm = getattr(params, f"{side}_lstm")
        if lstm is None:
            np.add.at(grads.embeddings, trace[f"{side}_ids"], d_states.pop(side))
        else:
            lstm_backward(lstm, trace.pop(f"{side}_lstm_trace"), d_states.pop(side),
                          getattr(grads, f"{side}_lstm"), grads.embeddings)
    # a pad inside a row's length is read as the pad row, which stays zero
    grads.embeddings[PAD_INDEX] = 0.0


def _pad_time_major(rows):
    """((longest, B) int array holding row b in column b, padded after its
    end with the padding index; the rows' lengths (B,))."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    out = np.full((lengths.max(), len(rows)), PAD_INDEX, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    steps = np.arange(lengths.sum()) - np.repeat(starts, lengths)
    out[steps, np.repeat(np.arange(len(rows)), lengths)] = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64)
    return out, lengths


def chunks(instances, budget: int | None = None, keep_trace: bool = True):
    """Cut instances into the time-major chunks every pass runs on.

    Instances are ordered by context length, longest first, then by
    context ids, so the instances sharing a context (one sentence's aspect
    terms) sit side by side, and each chunk's contexts run through the
    context LSTM once each. A chunk holds at most budget real tokens of
    distinct contexts: CHUNK_TOKENS for a traced pass (keep_trace),
    NO_TRACE_TOKENS for a pass that keeps no trace, unless budget is
    given. A context over the budget is a chunk of its own; a run of
    instances sharing a context is never cut. Yields (positions, ctx_idx,
    tgt_idx, layout) per chunk: positions index instances in column order,
    ctx_idx holds the distinct contexts, and layout holds the rest of
    forward's chunk arguments (span, lengths, tgt_lengths, contexts).
    """
    if budget is None:
        budget = CHUNK_TOKENS if keep_trace else NO_TRACE_TOKENS
    ids = [tuple(inst.context_ids) for inst in instances]
    order = np.array(sorted(range(len(ids)), key=lambda i: (-len(ids[i]), ids[i])),
                     dtype=np.int64)
    # where in order each distinct context's run of instances starts
    firsts = [k for k in range(len(order)) if k == 0 or ids[order[k]] != ids[order[k - 1]]]
    bounds = np.array(firsts + [len(order)])
    # reach[g1] - reach[g0]: the tokens of the runs' contexts g0 to g1 - 1
    reach = np.cumsum([0] + [len(ids[order[k]]) for k in firsts])
    cuts = [0] if firsts else []
    for g in range(1, len(firsts)):
        if reach[g + 1] - reach[cuts[-1]] > budget:
            cuts.append(g)
    for g0, g1 in zip(cuts, cuts[1:] + [len(firsts)]):
        rows = order[bounds[g0]:bounds[g1]]
        ctx_idx, lengths = _pad_time_major([ids[order[k]] for k in firsts[g0:g1]])
        tgt_idx, tgt_lengths = _pad_time_major([instances[i].target_ids for i in rows])
        yield rows, ctx_idx, tgt_idx, {
            "span": [instances[i].span for i in rows],
            "lengths": lengths,
            "tgt_lengths": tgt_lengths,
            "contexts": np.repeat(np.arange(g1 - g0), np.diff(bounds[g0:g1 + 1])),
        }


def _checkpoint_members(params: ModelParams):
    """(member name, array) per checkpoint member: each fused LSTM array as
    its four gate row blocks (contiguous views a load fills in place), in i,
    f, o, c order, under the per-gate names checkpoints have always used."""
    gates = {"W_x": ("Wi_w", "Wf_w", "Wo_w", "Wc_w"), "W_h": ("Wi_h", "Wf_h", "Wo_h", "Wc_h"),
             "b": ("bi", "bf", "bo", "bc")}
    for name, arr in params.named_arrays():
        group, _, short = name.rpartition(".")
        if group.endswith("_lstm"):
            for gate, block in zip(gates[short], np.split(arr, 4)):
                yield f"{group}.{gate}", block
        else:
            yield name, arr


def save_checkpoint(path: str, params: ModelParams, config: dict | None = None):
    """Write every parameter array plus a json metadata record to one npz."""
    arrays = dict(_checkpoint_members(params))
    meta = {
        "format": CHECKPOINT_FORMAT,
        **params.layout(),
        "vocab": list(params.vocab.tokens) if params.embeddings is not None else [],
        "config": config or {},
    }
    arrays["__meta__"] = np.array(json.dumps(meta))
    # an open file, so np.savez writes the path as named, adding no suffix
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str):
    """Rebuild (params, meta) from a checkpoint written by save_checkpoint.

    Each array is read in place into a shell built from a zero init source
    (loading draws no random numbers), after its .npy header is checked
    against the shell's array; zipfile checks each member's CRC. A file
    that cannot be read as one (not a zip archive, truncated, no or bad
    metadata, missing arrays or arrays of another shape, dtype or order,
    a zip entry flagged as encrypted or stored by an unsupported method
    or version) raises one ValueError naming the path and the cause.
    """
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("not a zip archive (truncated, or not an npz file)")
            fh.seek(0)
            with zipfile.ZipFile(fh) as archive:
                return _params_from_npz(archive)
    except (ValueError, KeyError, TypeError, EOFError, OSError, zipfile.BadZipFile,
            NotImplementedError, RuntimeError) as err:
        raise ValueError(f"cannot load checkpoint {path}: {err}") from None


# the largest piece of one array read from the archive at a time, in bytes
READ_PIECE = 1 << 20


def _params_from_npz(archive: zipfile.ZipFile):
    members = set(archive.namelist())
    if "__meta__.npy" not in members:
        raise ValueError("no __meta__ record")
    with archive.open("__meta__.npy") as member:
        record = npy_format.read_array(member, allow_pickle=False)
    try:
        meta = json.loads(str(record))
    except json.JSONDecodeError as err:
        raise ValueError(f"__meta__ is not valid JSON ({err})") from None
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format: {fmt!r}")
    tokens = meta["vocab"]  # empty for the majority baseline
    if tokens and tokens[0] != PAD_TOKEN:
        raise ValueError("checkpoint vocabulary does not start with the pad token")
    params = ModelParams(ZeroInit(), Vocabulary(tokens[1:]), **{key: meta[key] for key in LAYOUT})
    for name, arr in _checkpoint_members(params):
        if f"{name}.npy" not in members:
            raise ValueError(f"checkpoint is missing array {name!r}")
        with archive.open(f"{name}.npy") as member:
            _read_npy_into(member, name, arr)
    return params, meta


def _read_npy_into(member, name: str, arr: np.ndarray):
    """Fill arr from one .npy member whose header must describe arr's own
    shape as C-ordered float64, in pieces of at most READ_PIECE bytes."""
    # np.savez writes version 1.0 records for every array a model has
    version = npy_format.read_magic(member)
    if version != (1, 0):
        raise ValueError(f"checkpoint array {name!r} has .npy version {version}")
    shape, fortran, dtype = npy_format.read_array_header_1_0(member)
    if (shape, fortran, dtype) != (arr.shape, False, arr.dtype):
        raise ValueError(
            f"checkpoint array {name!r} has shape {shape}, dtype {dtype}"
            f"{', Fortran order' if fortran else ''}; expected shape {arr.shape}, "
            f"dtype {arr.dtype}, C order"
        )
    raw = arr.reshape(-1).view(np.uint8)
    for lo in range(0, raw.size, READ_PIECE):
        piece = raw[lo:lo + READ_PIECE]
        if member.readinto(piece) != piece.size:
            raise ValueError(f"checkpoint array {name!r} is truncated")
    # reading past the end also lets zipfile check the member's CRC
    if member.read(1):
        raise ValueError(f"checkpoint array {name!r} has trailing bytes")
