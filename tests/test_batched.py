"""The chunked batch passes against the per-case reference they replaced.

_per_case.py holds the per-case model, loss and training loop. Every test
here lowers the chunk budget (model.CHUNK_ROWS packed rows for traced
passes, twice that for passes that keep no trace) so that one batch runs as
several chunks, each running its distinct contexts through the context LSTM
once, on packed steps. Chunking changes the order of floating-point sums
(GEMMs over all rows of a chunk, the gradients of a shared context summed
before its LSTM backward pass, gradients added chunk by chunk, the L2 term
once per batch), so the results agree to rounding: the loss within 1e-10,
every gradient array within 1e-10 of its largest magnitude, a seeded
training run within 1e-9, and predicted labels exactly. The models are
drawn at gradcheck's probe scale: at the init scale the attention biases'
gradients are rounding noise (about 1e-17), which no comparison can check.

A chunk's rows are each distinct context's tokens once, plus each
instance's target tokens and 2 rows for its own vectors; the memory guards
at the end hold a chunk of that budget at 300/300, long targets included.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ian.lstm
import ian.model
from _loop_pool import loop_features
from _oracles import oracle_probs
from _per_case import case, case_loss_and_grads, case_predict, case_train
from _per_case import forward as case_forward
from ian.embeddings import PAD_INDEX, Vocabulary
from ian.evaluate import predict_all
from ian.gradcheck import SCALE
from ian.model import TRAINABLE, VARIANTS, ModelParams, chunks, forward
from ian.numerics import Rng
from ian.training import GradSet, TrainConfig, dropout_mask, loss_and_grads, train

VOCAB = Vocabulary([f"w{i}" for i in range(30)])
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
LOW_ROWS = 16  # packed rows per traced chunk: a batch of ragged cases spans several


def make_model(variant, tie=False, embed_dim=5, hidden_dim=4, seed=0, scale=SCALE):
    """A seeded model, every array scaled by scale: by default gradcheck's
    probe scale, where each gradient array, the attention biases' too,
    stands clear of rounding and the classes stand apart."""
    rng = Rng(seed)
    params = ModelParams(rng, VOCAB, variant=variant, embed_dim=embed_dim,
                         hidden_dim=hidden_dim, tie_attention=tie)
    for lstm in (params.ctx_lstm, params.tgt_lstm):
        if lstm is not None:  # biases start at zero; give them weight
            lstm.b[...] = rng.uniform(-0.1, 0.1, lstm.b.shape)
    for _, arr in params.named_arrays():
        arr *= scale
    return params


@st.composite
def cases(draw, max_cases=7):
    """A batch of ragged cases: 1-12 context tokens, 1-3 target tokens
    taken from the context at its start, middle or end, trailing pads on
    either side, any label."""
    batch = []
    for _ in range(draw(st.integers(1, max_cases))):
        n = draw(st.integers(1, 12))
        m = draw(st.integers(1, min(n, 3)))
        start = {"start": 0, "end": n - m, "middle": (n - m) // 2}[
            draw(st.sampled_from(["start", "middle", "end"]))]
        ctx = draw(st.lists(st.integers(1, len(VOCAB) - 1), min_size=n, max_size=n))
        tgt = ctx[start:start + m]
        ctx = ctx + [PAD_INDEX] * draw(st.integers(0, 2))
        tgt = tgt + [PAD_INDEX] * draw(st.integers(0, 1))
        batch.append(case(ctx, tgt, (start, start + m), draw(st.integers(0, 2))))
    return batch


@st.composite
def shared_contexts(draw):
    """A batch in which each of 1-3 contexts (3-12 tokens, trailing pads
    or none) is repeated with 2-4 different targets, mixed in a drawn
    order with up to 3 ragged cases of `cases`."""
    batch = draw(cases(max_cases=3))
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(3, 12))
        ctx = draw(st.lists(st.integers(1, len(VOCAB) - 1), min_size=n, max_size=n))
        pads = [PAD_INDEX] * draw(st.integers(0, 2))
        spans = [(start, start + m) for m in (1, 2, 3) for start in range(n - m + 1)]
        for start, end in draw(st.lists(st.sampled_from(spans), min_size=2, max_size=4,
                                        unique=True)):
            batch.append(case(ctx + pads, ctx[start:end], (start, end), draw(st.integers(0, 2))))
    return draw(st.permutations(batch))


def per_case_sums(params, batch, l2, masks):
    grads = GradSet(params)
    loss = 0.0
    for k, inst in enumerate(batch):
        mask = None if masks is None else masks[k]
        loss += case_loss_and_grads(params, inst.context_ids, inst.target_ids, inst.span,
                                    inst.label, l2=l2, drop_mask=mask, grads=grads)[0]
    return loss, grads


def disagreeing(grads, ref_grads, rtol=1e-10):
    """Names of the arrays of grads further from ref_grads than rtol of the
    reference array's largest magnitude."""
    return [name for name, arr in grads.named_arrays()
            if np.max(np.abs(arr - ref_grads[name]), initial=0.0)
            > rtol * np.max(np.abs(ref_grads[name]), initial=0.0)]


def assert_batch_equals_per_case(params, batch, l2, masks, tol=1e-10):
    grads = GradSet(params)
    loss = loss_and_grads(params, batch, l2=l2, drop_masks=masks, grads=grads)
    ref_loss, ref_grads = per_case_sums(params, batch, l2, masks)
    assert abs(loss - ref_loss) <= tol
    assert disagreeing(grads, ref_grads, tol) == []


@pytest.mark.parametrize("variant,tie", TRAINABLE)
@PROPERTY
@given(batch=cases(), dropout=st.booleans(), l2=st.sampled_from([0.0, 1e-3]))
def test_batch_loss_and_grads_equal_per_case_sums(variant, tie, batch, dropout, l2):
    params = make_model(variant, tie)
    masks = dropout_mask(Rng(len(batch)), (len(batch), params.feature_dim()),
                         0.5 if dropout else 0.0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ian.model, "CHUNK_ROWS", LOW_ROWS)
        assert_batch_equals_per_case(params, batch, l2, masks)


@pytest.mark.parametrize("variant,tie", TRAINABLE)
@PROPERTY
@given(batch=shared_contexts(), dropout=st.booleans(), l2=st.sampled_from([0.0, 1e-3]))
def test_shared_contexts_equal_per_case(variant, tie, batch, dropout, l2):
    params = make_model(variant, tie)
    masks = dropout_mask(Rng(len(batch)), (len(batch), params.feature_dim()),
                         0.5 if dropout else 0.0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ian.model, "CHUNK_ROWS", LOW_ROWS)
        assert_batch_equals_per_case(params, batch, l2, masks)
        assert np.array_equal(predict_all(params, batch), case_predict(params, batch))


@pytest.mark.parametrize("variant,tie", TRAINABLE)
@PROPERTY
@given(batch=shared_contexts())
def test_no_trace_forward_equals_the_traced_one(variant, tie, batch):
    params = make_model(variant, tie)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ian.lstm, "BLOCK_ROWS", 3)  # several gate blocks per LSTM pass
        for _, ctx_idx, tgt_idx, layout in chunks(batch, LOW_ROWS, keep_trace=False):
            traced, full = forward(params, ctx_idx, tgt_idx, **layout)
            bare, trace = forward(params, ctx_idx, tgt_idx, keep_trace=False, **layout)
            # it keeps the weights of the variant's attentions, and nothing else
            assert set(trace) == {f"{side}_weights" for side in ("ctx", "tgt")
                                  if getattr(params, f"{side}_attn") is not None}
            for key, weights in trace.items():
                assert np.max(np.abs(weights - full[key])) <= 1e-12
            assert np.max(np.abs(bare - traced)) <= 1e-12
            assert np.array_equal(bare.argmax(axis=1), traced.argmax(axis=1))
        one = batch[0]  # a single instance runs as a chunk of one either way
        traced, _ = forward(params, one.context_ids, one.target_ids, span=one.span)
        bare, _ = forward(params, one.context_ids, one.target_ids, span=one.span,
                          keep_trace=False)
        assert bare.shape == traced.shape and np.max(np.abs(bare - traced)) <= 1e-12


def packed_layout_cases(rng):
    """Contexts of skewed lengths that several terms share: one of 30
    tokens with four terms, eight of 2-6 tokens with one to three each.
    Every context holds a pad inside its length, never its first word,
    and a two-token target may end on it."""
    out = []
    for n, terms in [(30, 4)] + [(int(rng.integers(2, 7)), int(rng.integers(1, 4)))
                                 for _ in range(8)]:
        ctx = list(rng.integers(1, len(VOCAB), n))
        ctx[int(rng.integers(1, n))] = PAD_INDEX
        for start in rng.choice([k for k in range(n) if ctx[k] != PAD_INDEX], terms):
            tgt = ctx[start:start + int(rng.integers(1, 3))]
            out.append(case(ctx, tgt, (int(start), int(start) + len(tgt)),
                            int(rng.integers(0, 3))))
    return out


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_packed_passes_equal_the_references_on_skewed_shared_contexts(variant, tie):
    # traced and untraced chunk passes on packed states against the
    # per-case reference and, for the variants it wires, the oracle
    batch = packed_layout_cases(Rng(31))
    params = make_model(variant, tie)
    masks = dropout_mask(Rng(32), (len(batch), params.feature_dim()), 0.5)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ian.model, "CHUNK_ROWS", 48)  # the long context's run fits
        assert_batch_equals_per_case(params, batch, 1e-3, masks)
        for keep_trace in (True, False):
            for pos, ctx_idx, tgt_idx, layout in chunks(batch, keep_trace=keep_trace):
                probs, _ = forward(params, ctx_idx, tgt_idx, keep_trace=keep_trace, **layout)
                for got, i in zip(probs, pos):
                    ids = batch[i].context_ids, batch[i].target_ids
                    ref = case_forward(params, *ids, span=batch[i].span)[0]
                    assert np.max(np.abs(got - ref)) <= 1e-10
                    if variant != "td_lstm":
                        assert np.max(np.abs(got - oracle_probs(params, *ids))) <= 1e-10
        assert np.array_equal(predict_all(params, batch), case_predict(params, batch))


def test_the_comparison_sees_a_doubled_attention_bias_gradient():
    # at the init scale these gradients are about 1e-17, inside any absolute
    # tolerance; drawn at the probe scale and compared relative to each
    # array's largest magnitude, a doubled one is flagged
    params = make_model("ian")
    batch = packed_layout_cases(Rng(31))
    grads = GradSet(params)
    loss_and_grads(params, batch, grads=grads)
    ref_grads = per_case_sums(params, batch, 0.0, None)[1]
    assert disagreeing(grads, ref_grads) == []
    grads.ctx_attn.b_a *= 2.0
    grads.tgt_attn.b_a *= 2.0
    assert disagreeing(grads, ref_grads) == ["ctx_attn.b_a", "tgt_attn.b_a"]


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_pooling_matrices_equal_the_position_loops(variant, tie):
    # every pooled vector and attention weight of a traced chunk pass
    # against the position loops it replaced, on the states it kept:
    # shared contexts with a pad inside each context's length
    batch = packed_layout_cases(Rng(33))
    params = make_model(variant, tie)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ian.model, "CHUNK_ROWS", 48)
        for _, ctx_idx, tgt_idx, layout in chunks(batch):
            _, trace = forward(params, ctx_idx, tgt_idx, **layout)
            features, weights = loop_features(params, trace)
            assert np.max(np.abs(trace["dropped"] - features)) <= 1e-12
            for side, ref in weights.items():
                assert np.max(np.abs(trace[f"{side}_weights"] - ref)) <= 1e-12


def own_rows(inst):
    """The packed rows an instance adds to its context's: its target tokens
    and 2 rows for its own vectors."""
    return len(inst.target_ids) + 2


def chunk_layouts(batch, cut):
    """Check that the chunks of cut hold every instance of batch once, each
    chunk's distinct contexts in one column each with their instances side
    by side, as int64 ids padded with the padding index; returns each
    chunk's (context lengths, packed rows per column, positions, distinct
    contexts in column order)."""
    seen, layouts = [], []
    for pos, ctx_idx, tgt_idx, layout in cut:
        lengths, contexts = layout["lengths"], layout["contexts"]
        for ids, ends in ((ctx_idx, lengths), (tgt_idx, layout["tgt_lengths"])):
            assert ids.dtype == np.int64 and ids.shape == (max(ends), len(ends))
            assert all(np.all(ids[end:, b] == PAD_INDEX) for b, end in enumerate(ends))
        distinct = [tuple(ctx_idx[:length, g]) for g, length in enumerate(lengths)]
        # one column per distinct context, its instances side by side
        assert len(set(distinct)) == len(distinct)
        assert np.array_equal(contexts, np.sort(contexts))
        assert [distinct[g] for g in contexts] == [tuple(batch[i].context_ids) for i in pos]
        for b, i in enumerate(pos):
            length = layout["tgt_lengths"][b]
            assert tuple(tgt_idx[:length, b]) == tuple(batch[i].target_ids)
            assert layout["span"][b] == batch[i].span
        seen += list(pos)
        pieces = [length + sum(own_rows(batch[i]) for i, c in zip(pos, contexts) if c == g)
                  for g, length in enumerate(lengths)]
        layouts.append((lengths, pieces, list(pos), distinct))
    assert sorted(seen) == list(range(len(batch)))
    return layouts


def run_rows(batch, context):
    """The packed rows of all instances of batch on context, run as one piece."""
    return len(context) + sum(own_rows(inst) for inst in batch
                              if tuple(inst.context_ids) == context)


@PROPERTY
@given(batch=shared_contexts(), budget=st.integers(1, 60), keep_trace=st.booleans())
def test_chunks_hold_each_context_once_within_the_row_budget(batch, budget, keep_trace):
    layouts = chunk_layouts(batch, chunks(batch, budget, keep_trace))
    for lengths, pieces, pos, _ in layouts:
        # the budget counts each distinct context's tokens once and each
        # instance's target tokens plus 2, for either kind of pass; only a
        # piece of one instance may exceed it
        assert lengths[0] == max(lengths)
        assert sum(pieces) <= budget or len(pos) == 1
    for (*_, a), (*_, b) in itertools.combinations(layouts, 2):
        for context in set(a) & set(b):  # a run of one context is cut only past the budget
            assert run_rows(batch, context) > budget
    for (_, first, _, a), (_, second, pos, b) in zip(layouts, layouts[1:]):
        # both cuts are greedy: a chunk closes only where its next piece
        # would not fit, and a piece only where its next instance would not
        assert sum(first) + second[0] > budget
        if a[-1] == b[0]:
            assert first[-1] + own_rows(batch[pos[0]]) > budget


def test_chunk_budget_counts_a_shared_context_once():
    ctx = [3, 4, 5, 6, 7]
    batch = [case(ctx, ctx[k:k + 1], (k, k + 1), 0) for k in range(5)]
    batch.append(case([8, 9], [9], (1, 2), 1))
    # 7 distinct context tokens and 6 instances of 1 target token and 2 rows
    # each: 25 rows, where a context per instance would be 45
    (pos, ctx_idx, tgt_idx, layout), = chunks(batch, 25)
    assert ctx_idx.shape == (5, 2) and list(layout["lengths"]) == [5, 2]
    assert list(layout["contexts"]) == [0, 0, 0, 0, 0, 1]
    assert len(list(chunks(batch, 24))) == 2


def test_chunks_cut_a_long_run_of_one_context_into_pieces():
    ctx = [3, 4, 5, 6, 7]
    batch = [case(ctx, ctx[k:k + 1], (k, k + 1), 0) for k in range(4)]
    batch += [case([8, 9], [9], (1, 2), 1), case([8, 9], [8], (0, 1), 2)]
    cut = list(chunks(batch, 16))
    # the run of four (5 + 4 x 3 rows) is cut after three (14 rows), and its
    # last piece runs the context again (8 rows), beside the next context's
    # run (8 rows)
    assert [list(layout["lengths"]) for *_, layout in cut] == [[5], [5, 2]]
    assert [list(layout["contexts"]) for *_, layout in cut] == [[0, 0, 0], [0, 1, 1]]
    assert sorted(i for pos, *_ in cut for i in pos) == list(range(6))
    # at 17 rows the run of four fits exactly, so it stays one piece, and
    # the next context's run goes to a chunk of its own
    cut = list(chunks(batch, 17))
    assert [list(layout["lengths"]) for *_, layout in cut] == [[5], [2]]
    assert [list(layout["contexts"]) for *_, layout in cut] == [[0, 0, 0, 0], [0, 0]]


def test_td_lstm_runs_a_shared_context_once_each_way():
    ctx = [3, 4, 5, 6, 7, 8]
    batch = [case(ctx, ctx[1:3], (1, 3), 0), case(ctx, ctx[4:5], (4, 5), 1)]
    (_, ctx_idx, tgt_idx, layout), = chunks(batch)
    _, trace = forward(make_model("td_lstm"), ctx_idx, tgt_idx, **layout)
    (_, _, ahead, _, ends), (_, _, behind, _, starts) = trace["sides"]
    # forward up to the furthest span end, reversed down to the earliest start
    assert list(ahead) == [5] and list(behind) == [5]
    # each instance reads the state that has read its own slice: step end - 1
    # forward, step len - 1 - start reversed
    assert list(ends) == [2, 4] and list(starts) == [4, 1]


def test_batch_equals_per_case_at_paper_dims(monkeypatch):
    monkeypatch.setattr(ian.model, "CHUNK_ROWS", 48)
    # at the init scale, where 300 dims alone lift every gradient clear of rounding
    params = make_model("ian", embed_dim=300, hidden_dim=300, seed=3, scale=1.0)
    rng = Rng(4)
    batch = []
    for n, pads in ((9, 0), (3, 2), (12, 1), (1, 0), (7, 0), (11, 3)):
        ctx = list(rng.integers(1, len(VOCAB), n))
        start = int(rng.integers(0, n))
        batch.append(case(ctx + [PAD_INDEX] * pads, ctx[start:start + 1] + [PAD_INDEX],
                          (start, start + 1), int(rng.integers(0, 3))))
    masks = dropout_mask(rng, (len(batch), params.feature_dim()), 0.5)
    assert_batch_equals_per_case(params, batch, 1e-3, masks)


@pytest.mark.parametrize("variant", VARIANTS)
@PROPERTY
@given(batch=cases(max_cases=12))
def test_predict_all_equals_per_case_argmax(variant, batch):
    params = make_model(variant)
    if variant == "majority":
        params.class_priors[:] = [0.2, 0.5, 0.3]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ian.model, "CHUNK_ROWS", LOW_ROWS)
        assert np.array_equal(predict_all(params, batch), case_predict(params, batch))


def test_batch_dropout_masks_take_the_per_case_draws():
    rng, ref_rng = Rng(8), Rng(8)
    masks = dropout_mask(rng, (5, 12), 0.5)
    for row in masks:
        assert np.array_equal(row, dropout_mask(ref_rng, (1, 12), 0.5)[0])
    assert np.array_equal(rng.random(3), ref_rng.random(3))


@pytest.mark.parametrize("variant,tie", [("ian", False), ("td_lstm", False), ("ian", True)])
def test_seeded_train_equals_per_case_train(monkeypatch, variant, tie):
    monkeypatch.setattr(ian.model, "CHUNK_ROWS", LOW_ROWS)
    rng = Rng(21)
    instances = []
    for k in range(11):
        n = int(rng.integers(1, 10))
        start = int(rng.integers(0, n))
        ctx = list(rng.integers(1, len(VOCAB), n)) + [PAD_INDEX] * (k % 2)
        instances.append(case(ctx, ctx[start:start + 1], (start, start + 1), k % 3))
    config = TrainConfig(epochs=2, learning_rate=0.5, momentum=0.9, l2=1e-3,
                         dropout=0.5, batch_size=4, shuffle=True)
    params = make_model(variant, tie, seed=5)
    ref = make_model(variant, tie, seed=5)
    history = train(params, instances, config, Rng(9))
    ref_losses = case_train(ref, instances, config, Rng(9))
    assert np.allclose([h["loss"] for h in history], ref_losses, rtol=0, atol=1e-9)
    for (name, arr), (_, ref_arr) in zip(params.named_arrays(), ref.named_arrays()):
        assert np.max(np.abs(arr - ref_arr)) <= 1e-9, name


# tracemalloc sees numpy's buffers. The bounds were set at about 1.5 times
# the peaks first measured at 300/300 with numpy 2.4 (loss_and_grads on 32
# cases of 60 context tokens: 6.1 MB; predict_all on 200 such cases: 4.9
# MB); the train process holds about 77 MB before any activation exists, so
# a chunk layout that grows these peaks past the bounds would break the
# benchmark's peak_rss_mb bound (10%) too. Every array a pass grows with its
# chunk holds one row per real token, so skewed lengths are held to the
# same bounds. Peaks with packed states at 300/300, numpy 2.4, at
# model.CHUNK_ROWS 320:
# - loss_and_grads: 6.8 MB on the sixty-token cases, 6.3 MB on 11
#   twenty-token contexts with three terms each, 6.6 MB on 1x120 + 31x8
#   tokens and 6.2 MB on 2x80 + 10x12 tokens with three terms each (25.5
#   and 13.0 MB while backward held padded (n, G, .) arrays), 6.3 MB on 32
#   or 96 twenty-token targets of one 40-token context (15.6 and 47.4 MB
#   while chunks counted no target token);
# - predict_all: 3.1 MB on 200 sixty-token cases, 3.5 MB on 1x120 + 199x8
#   tokens and 3.1 MB on 2x80 + 100x12 tokens with three terms each; each
#   untraced LSTM step writes its recurrent product and cell temporaries
#   into buffers sized once by the pass's widest step.
LOSS_AND_GRADS_PEAK_MB = 9.0
PREDICT_ALL_PEAK_MB = 7.0
# every pass reads a shared context's states in place, not copied out to
# each of its instances: on contexts of three terms each, the copy took
# predict_all from 4.5 to 6.1 MB, and loss_and_grads on 11 twenty-token
# contexts from 7.7 to 10.4 MB (the three_terms case of the guard above)
SHARED_CONTEXT_PEAK_MB = 5.0


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def sixty_token_cases(rng, n):
    out = []
    for _ in range(n):
        ctx = rng.integers(1, 500, 60)
        start = int(rng.integers(0, 58))
        out.append(case(ctx, ctx[start:start + 2], (start, start + 2), int(rng.integers(0, 3))))
    return out


def skewed_cases(rng, mix):
    """For each (contexts, tokens, terms) of mix: that many contexts of that
    many tokens, each with that many two-token targets."""
    out = []
    for n_contexts, n_tokens, terms in mix:
        for _ in range(n_contexts):
            ctx = rng.integers(1, 500, n_tokens)
            for start in rng.integers(0, n_tokens - 1, terms):
                out.append(case(ctx, ctx[start:start + 2], (int(start), int(start) + 2),
                                int(rng.integers(0, 3))))
    return out


@pytest.mark.parametrize("mix", [None, [(11, 20, 3)]], ids=["sixty_tokens", "three_terms"])
def test_activation_memory_stays_bounded_at_paper_dims(mix):
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant="ian", embed_dim=300, hidden_dim=300)
    grads = GradSet(params)
    rng = Rng(1)
    batch = sixty_token_cases(rng, 32)  # drawn either way: predict_all's cases follow
    if mix is not None:  # contexts that serve three instances each
        batch = skewed_cases(Rng(2), mix)
    peak = traced_peak_mb(lambda: loss_and_grads(params, batch, l2=1e-5, grads=grads))
    assert peak <= LOSS_AND_GRADS_PEAK_MB, peak
    many = sixty_token_cases(rng, 200)
    peak = traced_peak_mb(lambda: predict_all(params, many))
    assert peak <= PREDICT_ALL_PEAK_MB, peak


@pytest.mark.parametrize("mix", [[(1, 120, 1), (31, 8, 1)], [(2, 80, 3), (10, 12, 3)]])
def test_loss_and_grads_memory_stays_bounded_on_skewed_lengths(mix):
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant="ian", embed_dim=300, hidden_dim=300)
    grads = GradSet(params)
    batch = skewed_cases(Rng(2), mix)
    peak = traced_peak_mb(lambda: loss_and_grads(params, batch, l2=1e-5, grads=grads))
    assert peak <= LOSS_AND_GRADS_PEAK_MB, peak


@pytest.mark.parametrize("mix", [[(1, 120, 1), (199, 8, 1)], [(2, 80, 3), (100, 12, 3)]])
def test_predict_all_memory_stays_bounded_on_skewed_lengths(mix):
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant="ian", embed_dim=300, hidden_dim=300)
    batch = skewed_cases(Rng(2), mix)
    peak = traced_peak_mb(lambda: predict_all(params, batch))
    assert peak <= PREDICT_ALL_PEAK_MB, peak


def one_shared_context(n, tokens, target=2):
    """n instances with target-token targets on one context of tokens tokens."""
    rng = Rng(2)
    ctx = rng.integers(1, 500, tokens)
    return [case(ctx, ctx[start:start + target], (int(start), int(start) + target),
                 int(rng.integers(0, 3)))
            for start in rng.integers(0, tokens - target + 1, n)]


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_memory_stays_bounded_on_a_thousand_terms_of_one_context(variant, tie):
    # a target side has a column per instance: its pooling and score matrices
    # grow with the square of a chunk's instances, and td_lstm's sides with
    # its instances times their context
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant=variant, embed_dim=300, hidden_dim=300,
                         tie_attention=tie)
    batch = one_shared_context(1000, 20)
    peak = traced_peak_mb(lambda: predict_all(params, batch))
    assert peak <= PREDICT_ALL_PEAK_MB, peak
    grads = GradSet(params)
    peak = traced_peak_mb(lambda: loss_and_grads(params, batch, l2=1e-5, grads=grads))
    assert peak <= LOSS_AND_GRADS_PEAK_MB, peak


@pytest.mark.parametrize("variant,tie", TRAINABLE)
def test_memory_stays_bounded_on_long_targets_of_one_context(variant, tie):
    # a target LSTM's states and trace, and its (target rows, B) pooling and
    # score matrices, grow with the target tokens of a chunk's instances
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant=variant, embed_dim=300, hidden_dim=300,
                         tie_attention=tie)
    grads = GradSet(params)
    for n in (32, 96):  # a default batch, and a predict_all of three such
        batch = one_shared_context(n, 40, target=20)
        peak = traced_peak_mb(lambda: predict_all(params, batch))
        assert peak <= PREDICT_ALL_PEAK_MB, (n, peak)
        peak = traced_peak_mb(lambda: loss_and_grads(params, batch, l2=1e-5, grads=grads))
        assert peak <= LOSS_AND_GRADS_PEAK_MB, (n, peak)


def test_td_lstm_memory_stays_bounded_on_many_terms_of_a_long_context():
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant="td_lstm", embed_dim=300, hidden_dim=300)
    batch = one_shared_context(32, 80)
    peak = traced_peak_mb(lambda: predict_all(params, batch))
    assert peak <= PREDICT_ALL_PEAK_MB, peak


def test_predict_all_reads_shared_context_states_in_place():
    vocab = Vocabulary([f"w{i}" for i in range(499)])
    params = ModelParams(Rng(0), vocab, variant="ian", embed_dim=300, hidden_dim=300)
    batch = skewed_cases(Rng(2), [(2, 80, 3), (100, 12, 3)])
    peak = traced_peak_mb(lambda: predict_all(params, batch))
    assert peak <= SHARED_CONTEXT_PEAK_MB, peak
