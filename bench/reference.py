"""Reference outputs recorded from the seed code, and the checks against them.

A fixed probe (generator seed ``REF_SEED``, 300/300 ``ian`` model over the
whole lexicon, ``N_PROBE`` instances) goes through the same entry points
the workloads reach through the CLI, on every benchmark run, and is
compared with ``reference.json``:

- ``evaluate.predict_all`` labels exactly, and ``model.forward``
  probabilities within ``PROB_ATOL`` absolute;
- one epoch of ``training.train`` (batches of ``BATCH``, so several
  momentum steps; dropout off and no shuffling, so that the check does not
  depend on the order of random draws): the epoch loss in the history
  within ``LOSS_RTOL`` relative, and for each model component (embeddings,
  ctx_lstm, tgt_lstm, ctx_attn, tgt_attn, W_l, b_l) the sum of squares of
  its parameter change within ``STEP_RTOL`` relative. The change is the sum
  of the momentum steps, so it moves with every component's gradient.

Summing over a whole component makes the check independent of how the
component stores its arrays (split or fused gate matrices). The tolerances
admit changes of reduction order or batching, which move these numbers by
about 1e-13, and still catch a wrong gradient or a wrong forward pass,
which move them by orders of magnitude more.

Mismatches count against the operations they cover: a probe instance whose
label or probabilities differ fails one operation, and a training mismatch
fails all ``N_PROBE`` training operations.

Re-record (``python3 bench/reference.py``) only when a change is meant to
alter these numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import corpus

REF_SEED = 7
N_PROBE = 12
BATCH = 4
L2 = 1e-5
PROB_ATOL = 1e-9
LOSS_RTOL = 1e-6
STEP_RTOL = 1e-6

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _probe():
    from ian.data import AspectTerm, RawReview, build_instances

    words, sentences, _ = corpus.generate(REF_SEED, N_PROBE, 0)
    params = corpus.checkpoint_params(words, REF_SEED)
    reviews = [RawReview(text, [AspectTerm(t, s, e, pol) for t, s, e, pol in terms])
               for text, terms in sentences]
    instances, _ = build_instances(reviews, params.vocab, drop_unknown=True)
    return params, instances[:N_PROBE]


def _component_sumsq(pairs) -> dict:
    out = {}
    for name, arr in pairs:
        group = name.split(".")[0]
        out[group] = out.get(group, 0.0) + float(np.sum(arr * arr))
    return out


def measure(include_training: bool = True) -> dict:
    """The probe's outputs under the code now on the import path."""
    from ian.evaluate import predict_all
    from ian.model import forward
    from ian.numerics import Rng
    from ian.training import TrainConfig, train

    params, instances = _probe()
    out = {
        "probs": [forward(params, i.context_ids, i.target_ids, span=i.span)[0].tolist()
                  for i in instances],
        "labels": [int(k) for k in predict_all(params, instances)],
    }
    if include_training:
        before = [(name, arr.copy()) for name, arr in params.named_arrays()]
        config = TrainConfig(epochs=1, batch_size=BATCH, l2=L2, dropout=0.0,
                             seed=REF_SEED, shuffle=False)
        history = train(params, instances, config, Rng(REF_SEED))
        out["loss"] = float(history[0]["loss"])
        out["step_sumsq"] = _component_sumsq(
            (name, arr - old) for (name, arr), (_, old) in zip(params.named_arrays(), before))
    return out


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


def check(include_training: bool):
    """(attempted, failed, mismatch descriptions) of the probe against the
    reference; training is probed only when ``include_training``."""
    with open(PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    got = measure(include_training)
    bad, failed_instances = [], set()
    if len(got["labels"]) != len(ref["labels"]):
        bad.append(f"probe has {len(got['labels'])} instances, reference {len(ref['labels'])}")
        failed_instances.update(range(N_PROBE))
    for i, (p, q) in enumerate(zip(got["probs"], ref["probs"])):
        if np.max(np.abs(np.subtract(p, q))) > PROB_ATOL:
            bad.append(f"probe {i}: probabilities {p} differ from reference {q}")
            failed_instances.add(i)
    for i, (a, b) in enumerate(zip(got["labels"], ref["labels"])):
        if a != b:
            bad.append(f"probe {i}: predict_all label {a} differs from reference {b}")
            failed_instances.add(i)
    attempted, failed = N_PROBE, len(failed_instances)
    if include_training:
        train_bad = []
        if _rel(got["loss"], ref["loss"]) > LOSS_RTOL:
            train_bad.append(f"epoch loss {got['loss']!r} differs from reference {ref['loss']!r}")
        if sorted(got["step_sumsq"]) != sorted(ref["step_sumsq"]):
            train_bad.append(f"components {sorted(got['step_sumsq'])} differ from reference")
        for group, b in ref["step_sumsq"].items():
            a = got["step_sumsq"].get(group)
            if a is not None and _rel(a, b) > STEP_RTOL:
                train_bad.append(f"{group}: step sum of squares {a!r} vs reference {b!r}")
        bad += train_bad
        attempted += N_PROBE
        failed += N_PROBE if train_bad else 0
    return attempted, failed, bad


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(PATH), os.pardir, "src"))
    record = {"seed": REF_SEED, "n_probe": N_PROBE, "batch": BATCH, "l2": L2, **measure()}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH}")
