"""What the traced run wraps, and the per-layer metrics computed from it.

Layers are named after the modules of ``src/ian``. ``numerics`` is measured
through its callers in ``lstm``; ``viz`` and ``gradcheck`` sit on no user's
hot path and are not benchmarked. A rate whose denominator is zero (the
workload never runs that layer, or the function is absent) reads 0.

Which end-to-end metric each layer metric should move, and where, is
listed in README.md.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np


def _steps_forward(args, kwargs, result):
    return {"steps": int(np.shape(args[1])[0])}


def _steps_backward(args, kwargs, result):
    return {"steps": int(np.shape(args[2])[0])}


def _tokens(args, kwargs, result):
    # index 0 is the padding token; it is not a token of the instance
    return {"tokens": int(np.count_nonzero(args[1]) + np.count_nonzero(args[2]))}


def _instances(args, kwargs, result):
    return {"n": len(args[1])}


def _parsed(args, kwargs, result):
    return {"n": len(result[0])}


def _built(args, kwargs, result):
    return {"n": len(result[0]), "terms": sum(len(r.terms) for r in args[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _input_lines(args, kwargs, result):
    with open(args[0].input, encoding="utf-8") as fh:
        return {"n": sum(1 for line in fh if line.strip())}


# (module, attribute, span name, counts taken from the call)
TARGETS = (
    ("lstm", "lstm_forward", "lstm.fwd", _steps_forward),
    ("lstm", "lstm_backward", "lstm.bwd", _steps_backward),
    ("attention", "attend", "attention.fwd", None),
    ("attention", "attention_backward", "attention.bwd", None),
    ("embeddings", "lookup", "embeddings.lookup", None),
    ("model", "forward", "model.forward", _tokens),
    ("model", "predict_index", "model.predict_index", None),
    ("model", "ModelParams.__init__", "model.init", None),
    ("model", "save_checkpoint", "model.save_checkpoint", _file_bytes),
    ("model", "load_checkpoint", "model.load_checkpoint", _file_bytes),
    ("training", "train", "training.train", None),
    ("training", "loss_and_grads", "training.loss_and_grads", None),
    ("training", "backward", "training.backward", None),
    ("training", "GradSet.zero", "training.zero", None),
    ("training", "GradSet.scale", "training.scale", None),
    ("training", "GradSet.global_norm", "training.global_norm", None),
    ("training", "momentum_step", "training.momentum", None),
    ("evaluate", "evaluate_model", "evaluate.evaluate_model", None),
    ("evaluate", "predict_all", "evaluate.predict_all", _instances),
    ("data", "parse_semeval_xml", "data.parse", _parsed),
    ("data", "build_instances", "data.build_instances", _built),
    ("data", "build_vocab", "data.build_vocab", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_predict", "cli.predict", _input_lines),
)

# name, unit, better; BENCHMARK.json lists the same metrics in this order
METRICS = (
    ("lstm.fwd_calls", "count", "lower"),
    ("lstm.fwd_steps", "count", "lower"),
    ("lstm.fwd_us_per_step", "us", "lower"),
    ("lstm.fwd_share", "frac", "lower"),
    ("lstm.bwd_calls", "count", "lower"),
    ("lstm.bwd_steps", "count", "lower"),
    ("lstm.bwd_us_per_step", "us", "lower"),
    ("lstm.bwd_share", "frac", "lower"),
    ("lstm.steps_per_token", "ratio", "lower"),
    ("attention.fwd_calls", "count", "lower"),
    ("attention.fwd_us_per_call", "us", "lower"),
    ("attention.bwd_us_per_call", "us", "lower"),
    ("attention.share", "frac", "lower"),
    ("embeddings.lookup_calls", "count", "lower"),
    ("embeddings.lookup_us_per_call", "us", "lower"),
    ("model.forward_calls", "count", "lower"),
    ("model.forward_ms_per_call", "ms", "lower"),
    ("model.forward_self_us_per_call", "us", "lower"),
    ("model.init_ms", "ms", "lower"),
    ("model.load_checkpoint_ms", "ms", "lower"),
    ("model.save_checkpoint_ms", "ms", "lower"),
    ("model.checkpoint_bytes", "bytes", "lower"),
    ("training.loss_and_grads_self_ms_per_inst", "ms", "lower"),
    ("training.backward_self_us_per_inst", "us", "lower"),
    ("training.zero_ms_per_batch", "ms", "lower"),
    ("training.scale_ms_per_batch", "ms", "lower"),
    ("training.momentum_ms_per_batch", "ms", "lower"),
    ("training.train_self_ms_per_batch", "ms", "lower"),
    ("training.batches", "count", "lower"),
    ("training.forward_share", "frac", "lower"),
    ("training.backward_share", "frac", "lower"),
    ("training.optimizer_share", "frac", "lower"),
    ("training.accuracy_pass_share", "frac", "lower"),
    ("evaluate.predict_all_ms_per_inst", "ms", "lower"),
    ("evaluate.calls", "count", "lower"),
    ("data.parse_us_per_sentence", "us", "lower"),
    ("data.build_instances_us_per_inst", "us", "lower"),
    ("data.build_vocab_ms", "ms", "lower"),
    ("data.built_frac", "frac", "higher"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.predict_self_ms_per_line", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class _Totals:
    """Per span name: calls, inclusive and self seconds, summed counts."""

    def __init__(self, tracer):
        own = tracer.self_times()
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.counts = defaultdict(float)
        # inclusive seconds keyed by (name, parent name), for phase shares
        self.under = defaultdict(float)
        spans = tracer.spans
        for s in spans:
            self.calls[s.name] += 1
            self.incl[s.name] += s.duration
            self.self_[s.name] += own[s.id]
            for key, value in (s.counts or {}).items():
                self.counts[f"{s.name}:{key}"] += value
            parent = spans[s.parent].name if s.parent is not None else None
            self.under[(s.name, parent)] += s.duration


def layer_metrics(tracer, root, untraced_wall: float, import_ms: float) -> dict:
    """All METRICS from one traced pass whose outermost span is ``root``."""
    t = _Totals(tracer)
    wall = root.duration
    batches = t.calls["training.momentum"]
    fwd_steps = t.counts["lstm.fwd:steps"]
    bwd_steps = t.counts["lstm.bwd:steps"]
    train_forward = t.under[("model.forward", "training.loss_and_grads")]
    optimizer = sum(t.incl[n] for n in ("training.zero", "training.scale",
                                        "training.global_norm", "training.momentum"))
    ckpt_calls = t.calls["model.load_checkpoint"] + t.calls["model.save_checkpoint"]
    values = {
        "lstm.fwd_calls": t.calls["lstm.fwd"],
        "lstm.fwd_steps": fwd_steps,
        "lstm.fwd_us_per_step": 1e6 * _ratio(t.incl["lstm.fwd"], fwd_steps),
        "lstm.fwd_share": _ratio(t.incl["lstm.fwd"], wall),
        "lstm.bwd_calls": t.calls["lstm.bwd"],
        "lstm.bwd_steps": bwd_steps,
        "lstm.bwd_us_per_step": 1e6 * _ratio(t.incl["lstm.bwd"], bwd_steps),
        "lstm.bwd_share": _ratio(t.incl["lstm.bwd"], wall),
        "lstm.steps_per_token": _ratio(fwd_steps, t.counts["model.forward:tokens"]),
        "attention.fwd_calls": t.calls["attention.fwd"],
        "attention.fwd_us_per_call": 1e6 * _ratio(t.incl["attention.fwd"],
                                                  t.calls["attention.fwd"]),
        "attention.bwd_us_per_call": 1e6 * _ratio(t.incl["attention.bwd"],
                                                  t.calls["attention.bwd"]),
        "attention.share": _ratio(t.incl["attention.fwd"] + t.incl["attention.bwd"], wall),
        "embeddings.lookup_calls": t.calls["embeddings.lookup"],
        "embeddings.lookup_us_per_call": 1e6 * _ratio(t.incl["embeddings.lookup"],
                                                      t.calls["embeddings.lookup"]),
        "model.forward_calls": t.calls["model.forward"],
        "model.forward_ms_per_call": 1e3 * _ratio(t.incl["model.forward"],
                                                  t.calls["model.forward"]),
        "model.forward_self_us_per_call": 1e6 * _ratio(t.self_["model.forward"],
                                                       t.calls["model.forward"]),
        "model.init_ms": 1e3 * _ratio(t.incl["model.init"], t.calls["model.init"]),
        "model.load_checkpoint_ms": 1e3 * _ratio(t.incl["model.load_checkpoint"],
                                                 t.calls["model.load_checkpoint"]),
        "model.save_checkpoint_ms": 1e3 * _ratio(t.incl["model.save_checkpoint"],
                                                 t.calls["model.save_checkpoint"]),
        "model.checkpoint_bytes": _ratio(t.counts["model.load_checkpoint:bytes"]
                                         + t.counts["model.save_checkpoint:bytes"],
                                         ckpt_calls),
        "training.loss_and_grads_self_ms_per_inst": 1e3 * _ratio(
            t.self_["training.loss_and_grads"], t.calls["training.loss_and_grads"]),
        "training.backward_self_us_per_inst": 1e6 * _ratio(
            t.self_["training.backward"], t.calls["training.backward"]),
        "training.zero_ms_per_batch": 1e3 * _ratio(t.incl["training.zero"], batches),
        "training.scale_ms_per_batch": 1e3 * _ratio(t.incl["training.scale"], batches),
        "training.momentum_ms_per_batch": 1e3 * _ratio(t.incl["training.momentum"], batches),
        "training.train_self_ms_per_batch": 1e3 * _ratio(t.self_["training.train"], batches),
        "training.batches": batches,
        "training.forward_share": _ratio(train_forward, wall),
        "training.backward_share": _ratio(t.incl["training.loss_and_grads"] - train_forward,
                                          wall),
        "training.optimizer_share": _ratio(optimizer, wall),
        "training.accuracy_pass_share": _ratio(
            t.under[("evaluate.evaluate_model", "training.train")], wall),
        "evaluate.predict_all_ms_per_inst": 1e3 * _ratio(t.incl["evaluate.predict_all"],
                                                         t.counts["evaluate.predict_all:n"]),
        "evaluate.calls": t.calls["evaluate.predict_all"],
        "data.parse_us_per_sentence": 1e6 * _ratio(t.incl["data.parse"],
                                                   t.counts["data.parse:n"]),
        "data.build_instances_us_per_inst": 1e6 * _ratio(t.incl["data.build_instances"],
                                                         t.counts["data.build_instances:n"]),
        "data.build_vocab_ms": 1e3 * _ratio(t.incl["data.build_vocab"],
                                            t.calls["data.build_vocab"]),
        "data.built_frac": _ratio(t.counts["data.build_instances:n"],
                                  t.counts["data.build_instances:terms"]),
        "cli.import_ms": import_ms,
        "cli.predict_self_ms_per_line": 1e3 * _ratio(t.self_["cli.predict"],
                                                     t.counts["cli.predict:n"]),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "trace.unattributed_frac": _ratio(t.self_[root.name], wall),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in METRICS}
