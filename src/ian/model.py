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
from .numerics import Rng, softmax_stable, tanh, uniform_init

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

# every (variant, tie_attention) pair a model can be trained as: a variant
# that attends both sides may share one attention between them
TRAINABLE = tuple((variant, tie) for variant, route in ROUTES.items() for tie in (False, True)
                  if not tie or route.tgt_pool in ("ctx", "tgt"))

CHECKPOINT_FORMAT = 1

# the packed rows a chunk of a traced pass holds, twice as many for a pass
# that keeps no trace: each distinct context's tokens once, and each
# instance's target tokens plus 2 rows for its own vectors (its query, pooled
# vectors and features). README.md has the measurements behind the figure,
# and why it counts rows, not bytes
CHUNK_ROWS = 320

# constructor arguments that, with the vocabulary, fix which arrays a model
# has, their shapes and which are tied; a checkpoint's meta records them
LAYOUT = ("variant", "tie_attention", "embed_dim", "hidden_dim")


def feature_sides(route: Route):
    """(side, pool) per pooled vector of the classifier input, in
    concatenation order."""
    return tuple((side, pool) for side, pool in (("ctx", route.ctx_pool),
                                                  ("tgt", route.tgt_pool))
                 if pool is not None)


class ModelParams:
    """All trainable arrays for one variant, plus the vocabulary.

    numerics.uniform_init fills every weight array where it lives, in a
    fixed order (embeddings, context LSTM, target LSTM, context attention,
    target attention, classifier), so a given seed and configuration always
    yields the same model; with rng None, the same arrays and attention tie
    are all zero. A given embeddings table (one row per token, pad row zero)
    is trained in place, and its dtype (float64 when drawn) is every array's.
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
        if tie_attention and (variant, True) not in TRAINABLE:
            raise ValueError(f"variant {variant!r} has no second attention to tie")
        route = ROUTES.get(variant)
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
        dtype = embeddings.dtype

        self.ctx_lstm = LstmParams(rng, embed_dim, hidden_dim, dtype)
        if route.target in ("lstm", "span"):
            self.tgt_lstm = LstmParams(rng, embed_dim, hidden_dim, dtype)
        # an average of raw target embeddings is embed_dim wide, so the
        # score matrix it queries is hidden_dim x embed_dim
        query_dim = {"ctx": hidden_dim,
                     "tgt": embed_dim if route.target == "embed" else hidden_dim}
        if route.ctx_pool in query_dim:
            self.ctx_attn = AttentionParams(rng, hidden_dim, query_dim[route.ctx_pool], dtype)
        if tie_attention:
            self.tgt_attn = self.ctx_attn
        elif route.tgt_pool in query_dim:
            self.tgt_attn = AttentionParams(rng, hidden_dim, query_dim[route.tgt_pool], dtype)

        feat = self.feature_dim()
        self.W_l = uniform_init(rng, np.empty((len(LABELS), feat), dtype))
        self.b_l = np.zeros(len(LABELS), dtype)

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


def mean_matrix(rows: np.ndarray, tokens: int, dtype=np.float64) -> np.ndarray:
    """The (tokens, B) pooling matrix, of dtype, whose column b averages the
    packed rows rows[:, b] names (those >= 0): 1/count on each of them."""
    inside = rows >= 0
    count = inside.sum(axis=0)
    if np.any(count == 0):
        raise ValueError("mean over an empty selection")
    return pool_matrix(rows, np.divide(inside, count, dtype=dtype), tokens)


def _classify(params: ModelParams, features: np.ndarray, dropout_mask, trace: dict):
    dropped = features if dropout_mask is None else features * dropout_mask
    x = tanh(dropped @ params.W_l.T + params.b_l)
    probs = softmax_stable(x, axis=-1)
    trace.update(dropout_mask=dropout_mask, dropped=dropped, x=x, probs=probs)
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
    """(side, ids, row lengths, gather, last) per side the route encodes,
    in the order they run. ids is time-major; gather is the ids column of
    each instance and last the step its last state is read at (None: its
    column's last step): the distinct contexts run once each and serve all
    their instances, and a target side has a column per instance, so it
    runs first, its wide steps before the context's states exist."""
    if route.target != "span":
        sides = [("ctx", ctx_idx, lengths, contexts, None)]
        if route.target is not None:
            sides.insert(0, ("tgt", tgt_idx, tgt_lengths, np.arange(len(contexts)), None))
        return sides
    if span is None:
        raise ValueError("td_lstm needs the target span inside the context")
    span = np.asarray(span, dtype=np.int64).reshape(len(contexts), 2)
    # a span reaching past the row's end is cut there, as a slice would be
    start, end = span[:, 0], np.minimum(span[:, 1], lengths[contexts])
    # each distinct context runs forward up to its instances' furthest end and
    # reversed down to their earliest start; an instance reads its own position
    # of both, whose state has read exactly its own slice
    reach, low = np.zeros_like(lengths), lengths.copy()
    np.maximum.at(reach, contexts, end)
    np.minimum.at(low, contexts, start)
    rev = lengths - 1 - np.arange(len(ctx_idx))[:(lengths - low).max(), None]
    return [("ctx", ctx_idx[:reach.max()], reach, contexts, end - 1),
            ("tgt", np.take_along_axis(ctx_idx, np.maximum(rev, 0), axis=0),
             lengths - low, contexts, lengths[contexts] - 1 - start)]


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
    for side, ids, lens, gather, last in trace["sides"]:
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
        lasts[side] = row_of[lens[gather] - 1 if last is None else last, gather][None]

    means = {}

    def mean(side):
        if side not in means:
            means[side] = mean_matrix(rows[side], len(states[side]), states[side].dtype)
        return means[side]

    pools = []

    def pooling(side, pool):
        """One side's pooling matrix, kept in pools by a traced pass."""
        if pool == "last":  # the mean of one row, its last state
            matrix = mean_matrix(lasts[side], len(states[side]), states[side].dtype)
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
    return (np.array(list(itertools.zip_longest(*rows, fillvalue=PAD_INDEX)), dtype=np.int64),
            np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))


def chunks(instances, budget: int | None = None, keep_trace: bool = True):
    """Cut instances into the time-major chunks every pass runs on.

    Instances are ordered by context length, longest first, then by
    context ids, so the instances sharing a context (one sentence's aspect
    terms) sit side by side, and each chunk's contexts run through the
    context LSTM once each. A chunk holds at most budget packed rows:
    CHUNK_ROWS for a traced pass (keep_trace), twice that for a pass that
    keeps no trace, unless budget is given. Its rows are each distinct
    context's tokens once, plus each instance's target tokens and 2 rows
    for its own vectors. A first greedy loop cuts the ordered instances
    into pieces of one context each: a piece starts where the context
    changes or where an instance's own rows would take it past the budget,
    and runs its context once. A second closes a chunk only where its next
    piece would not fit, so a piece over the budget is a chunk of its own.
    Yields (positions, ctx_idx, tgt_idx, layout) per chunk: positions
    index instances in column order, ctx_idx holds the distinct contexts,
    and layout holds the rest of forward's chunk arguments (span, lengths,
    tgt_lengths, contexts).
    """
    if budget is None:
        budget = CHUNK_ROWS if keep_trace else 2 * CHUNK_ROWS
    ids = [tuple(inst.context_ids) for inst in instances]
    pieces, rows = [], []
    for i in sorted(range(len(ids)), key=lambda i: (-len(ids[i]), ids[i])):
        own = len(instances[i].target_ids) + 2
        if not pieces or ids[i] != ids[pieces[-1][0]] or rows[-1] + own > budget:
            pieces.append([])
            rows.append(len(ids[i]))
        pieces[-1].append(i)
        rows[-1] += own
    groups, total = [], 0
    for piece, n in zip(pieces, rows):
        if not groups or total + n > budget:
            groups.append([])
            total = 0
        groups[-1].append(piece)
        total += n
    for group in groups:
        pos = [i for piece in group for i in piece]
        ctx_idx, lengths = _pad_time_major([ids[piece[0]] for piece in group])
        tgt_idx, tgt_lengths = _pad_time_major([instances[i].target_ids for i in pos])
        yield np.array(pos, dtype=np.int64), ctx_idx, tgt_idx, {
            "span": [instances[i].span for i in pos],
            "lengths": lengths,
            "tgt_lengths": tgt_lengths,
            "contexts": np.repeat(np.arange(len(group)), [len(piece) for piece in group]),
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
    (loading draws no random numbers) in the stored embedding table's
    dtype, float32 or float64, after its .npy header is checked against
    the shell's array; zipfile checks each member's CRC. A file
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
    if not isinstance(meta.get("config", {}), dict):
        raise ValueError("__meta__ config is not an object")
    tokens = meta["vocab"]  # empty for the majority baseline
    if tokens and tokens[0] != PAD_TOKEN:
        raise ValueError("checkpoint vocabulary does not start with the pad token")
    vocab, table = Vocabulary(tokens[1:]), None
    if "embeddings.npy" in members:
        # the shell takes the stored table's dtype, as a model takes its table's
        with archive.open("embeddings.npy") as member:
            dtype = _npy_header(member, "embeddings")[2]
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"checkpoint array 'embeddings' has dtype {dtype}; "
                             "expected float32 or float64")
        table = np.zeros((len(vocab), meta["embed_dim"]), dtype)
    params = ModelParams(None, vocab, **{key: meta[key] for key in LAYOUT}, embeddings=table)
    for name, arr in _checkpoint_members(params):
        if f"{name}.npy" not in members:
            raise ValueError(f"checkpoint is missing array {name!r}")
        with archive.open(f"{name}.npy") as member:
            _read_npy_into(member, name, arr)
    return params, meta


def _npy_header(member, name: str):
    """(shape, Fortran order, dtype) from the header of one .npy member."""
    # np.savez writes version 1.0 records for every array a model has
    version = npy_format.read_magic(member)
    if version != (1, 0):
        raise ValueError(f"checkpoint array {name!r} has .npy version {version}")
    return npy_format.read_array_header_1_0(member)


def _read_npy_into(member, name: str, arr: np.ndarray):
    """Fill arr from one .npy member whose header must describe arr's own
    shape and dtype, C-ordered, in pieces of at most READ_PIECE bytes."""
    shape, fortran, dtype = _npy_header(member, name)
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
