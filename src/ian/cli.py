"""Command-line entry point.

Subcommands: stats, train, eval, predict, gradcheck, attention-viz.
stats, train and eval accept --config FILE, a flat key=value text file
whose values become the defaults of the subcommand's flags (explicit flags
win).  All randomness is keyed to --seed, so a command is deterministic
given its flags, files and seed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import re
import sys
import time
import warnings
from dataclasses import asdict, fields, replace

from .data import (
    CATEGORIES,
    SPLITS,
    AspectTerm,
    RawReview,
    build_instances,
    build_vocab,
    dataset_stats,
    dump_instances,
    find_term,
    load_category,
    load_reviews,
    render_stats,
    tokenize,
    tokenize_with_spans,
)
from .embeddings import load_pretrained, text_lines
from .evaluate import accuracy, evaluate_model, predict_all, render_report, report_tsv
from .model import LABELS, TRAINABLE, VARIANTS, ModelParams, load_checkpoint, save_checkpoint
from .numerics import Rng
from .training import TrainConfig, train

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class UsageError(ValueError):
    """Flags that no single flag's check can refuse; exits 2, as argparse does."""


def read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    cfg = {}
    for lineno, raw in enumerate(list(text_lines(path)), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key] = value
    return cfg


def _as_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"expects a boolean, got {value!r}")


def _bounded(name: str, cast, ok, expects: str):
    """argparse type `name`: cast(value), refused unless ok(number). argparse names
    the flag in the error, and `name` when cast fails ("invalid positive_int value")."""
    def check(value: str):
        number = cast(value)
        if not ok(number):
            raise argparse.ArgumentTypeError(f"expects {expects}, got {value}")
        return number
    check.__name__ = name
    return check


positive_int = _bounded("positive_int", int, lambda n: n >= 1, "a positive integer")
nonnegative_int = _bounded("nonnegative_int", int, lambda n: n >= 0, "an integer >= 0")


def optional_float(value: str) -> float | None:
    """A float, or None for the word "none" (any case)."""
    if value.lower() == "none":
        return None
    return float(value)


def config_defaults(path: str, configurable: dict, command: str) -> dict:
    """The --config file's values for `command`'s flags, each cast as its
    flag casts it. The keys are the flag dests of every configurable
    subcommand, so one file serves them all: `command` ignores the keys
    of the others."""
    flags = {
        name: {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
        for name, sub in configurable.items()
    }
    defaults = {}
    for key, value in read_config_file(path).items():
        action = flags[command].get(key)
        if action is None:
            if not any(key in dests for dests in flags.values()):
                raise ValueError(f"{path}: unknown config key {key!r}")
            continue
        try:
            value = _as_bool(value) if action.nargs == 0 else (action.type or str)(value)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"expects one of {', '.join(action.choices)}, got {value!r}")
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ValueError(f"{path}: config key {key}: {err}") from None
        defaults[key] = value
    return defaults


# --- stats ---------------------------------------------------------------


def cmd_stats(args) -> int:
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
    categories = CATEGORIES if args.category == "both" else (args.category,)
    for category in categories:
        train_ds, test_ds, reports = load_category(category, args.data_dir)
        for ds in (train_ds, test_ds):
            print(render_stats(dataset_stats(ds)))
            report, realigned = reports[ds.split]
            notes = [text.format(count) for count, text in (
                (report.dropped_conflict, "dropped {} conflict"),
                (report.dropped_other_polarity, "dropped {} unknown polarity"),
                (report.dropped_unlocatable + report.dropped_empty,
                 "dropped {} unlocatable/empty"),
                (report.span_fallbacks, "{} span fallbacks"),
                (realigned, "{} offsets realigned"),
            ) if count]
            if notes:
                print("  note  " + ", ".join(notes))
            if args.dump_dir:
                path = os.path.join(args.dump_dir, f"{category}_{ds.split}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dump_instances(ds.instances))
                print(f"  wrote {path}")
    return 0


def check_writable(*paths):
    """Refuse an output path (None: no file) that names a directory or lies in
    a missing one."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"cannot write {path}: its directory does not exist")


# --- train ---------------------------------------------------------------


def _write_history(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# epoch\tloss\ttrain_acc\teval_acc\n")
        for entry in history:
            eval_acc = entry.get("eval_acc")
            fh.write(
                f"{entry['epoch']}\t{entry['loss']:.6f}\t{entry['train_acc']:.6f}"
                f"\t{'' if eval_acc is None else f'{eval_acc:.6f}'}\n"
            )


def cmd_train(args) -> int:
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    train_ds, test_ds, _ = load_category(args.category, args.data_dir)
    print(
        f"{args.category}: {len(train_ds.instances)} train / {len(test_ds.instances)} test "
        f"instances, vocabulary {len(train_ds.vocab)}"
    )
    if not train_ds.instances:
        raise ValueError("no usable training instance")
    if not test_ds.instances:
        raise ValueError("no usable test instance")

    rng = Rng(config.seed)
    table = None
    if args.embeddings_path and args.variant != "majority":
        table, hits, misses = load_pretrained(args.embeddings_path, train_ds.vocab,
                                              args.embed_dim, rng)
        print(f"pretrained vectors: {hits} hits, {misses} misses")
    params = ModelParams(
        rng,
        train_ds.vocab,
        variant=args.variant,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        tie_attention=args.tie_attention,
        embeddings=table,
    )
    # a path that cannot be written fails here, before the first epoch
    os.makedirs(args.out_dir, exist_ok=True)
    history_path = args.history or os.path.join(args.out_dir, "history.txt")
    checkpoint_path = args.checkpoint or os.path.join(args.out_dir, "model.npz")
    check_writable(history_path, checkpoint_path)
    history = train(
        params, train_ds.instances, config, rng,
        eval_instances=test_ds.instances, log=print,
    )

    _write_history(history, history_path)
    save_checkpoint(checkpoint_path, params,
                    config={"category": args.category, **asdict(config)})
    print(f"wrote {checkpoint_path} and {history_path}")
    report = history[-1]["eval_report"]
    print(render_report(replace(report, dataset=f"{args.category} test")))
    return 0


# --- eval / predict ------------------------------------------------------


def _instances_for_checkpoint(params, reviews):
    """Instances for scoring against a fixed checkpoint vocabulary.

    Unknown tokens are dropped (with span remapping).  The majority variant
    stores no vocabulary, so a throwaway one is built from the reviews —
    its prediction ignores the token ids entirely.
    """
    if params.embeddings is None:
        vocab = build_vocab([reviews])
        return build_instances(reviews, vocab)
    return build_instances(reviews, params.vocab, drop_unknown=True)


def cmd_eval(args) -> int:
    check_writable(args.out)
    params, meta = load_checkpoint(args.checkpoint)
    category = args.category or meta.get("config", {}).get("category", "restaurant")
    reviews, _ = load_reviews(category, args.split, args.data_dir)
    instances, report = _instances_for_checkpoint(params, reviews)
    dropped = report.dropped_unlocatable + report.dropped_empty
    if dropped:
        print(f"note: {dropped} instances dropped during encoding", file=sys.stderr)
    result = evaluate_model(params, instances, dataset=f"{category} {args.split}")
    print(render_report(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_tsv(result))
        print(f"wrote {args.out}")
    return 0


def _instance_from_line(params, sentence, target, gold=None, start=None):
    """The single instance for a target inside a sentence, or None.

    start is the target's character offset; by default, the first
    occurrence of the target text (exact case first). When the text is not
    found, build_instances searches the sentence tokens for it instead.
    Its warnings are silenced: every caller reports a failure itself.
    """
    if start is None:
        start = find_term(sentence, target)
    end = start + len(target) if start >= 0 else 0
    review = RawReview(
        text=sentence,
        terms=[AspectTerm(text=target, start=max(start, 0), end=end, polarity=gold)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        instances, _ = _instances_for_checkpoint(params, [review])
    return instances[0] if instances else None


def cmd_predict(args) -> int:
    """Label every line with one predict_all call; --output is opened only
    once every line has been read and labelled, so a failing call leaves
    an existing output file as it was."""
    check_writable(None if args.output == "-" else args.output)
    params, _ = load_checkpoint(args.checkpoint)
    slots = []  # per non-blank line: its index into instances, or None for "?"
    instances = []
    n_gold = 0  # well-formed lines with a valid gold label, labelled or not
    for lineno, raw in enumerate(list(text_lines(args.input)), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3) or not parts[0].strip() or not parts[1].strip():
            warning = "expected sentence<TAB>target[<TAB>gold]"
            inst = None
        else:
            sentence, target = parts[0], parts[1]
            gold = parts[2].strip() if len(parts) == 3 else None
            if gold is not None and gold not in LABELS:
                warning = f"unknown gold label {gold!r}"
                inst = None
            else:
                n_gold += gold is not None
                warning = f"target {target!r} not usable in this sentence"
                inst = _instance_from_line(params, sentence, target, gold)
        if inst is None:
            print(f"warning: line {lineno}: {warning}", file=sys.stderr)
            slots.append(None)
            continue
        slots.append(len(instances))
        instances.append(inst)
    preds = predict_all(params, instances)

    out = sys.stdout if args.output in (None, "-") else open(args.output, "w", encoding="utf-8")
    try:
        for slot in slots:
            out.write("?\n" if slot is None else LABELS[preds[slot]] + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    scored = [k for k, inst in enumerate(instances) if inst.label is not None]
    unlabelled = f", {n_gold - len(scored)} of them unlabelled (?)" if len(scored) < n_gold else ""
    if scored:
        report = accuracy(preds[scored], [instances[k].label for k in scored])
        over = f" over the other {report.total}" if unlabelled else ""
        print(f"gold given for {n_gold} lines{unlabelled}: accuracy {report.accuracy:.4f}{over}")
    elif n_gold:  # no accuracy over zero lines
        print(f"gold given for {n_gold} lines{unlabelled}")
    return 1 if None in slots else 0


# --- gradcheck -----------------------------------------------------------


def cmd_gradcheck(args) -> int:
    """Check every trainable layout at every gradcheck.DIMS pair, one model
    after another; a tied layout is named variant+tied. Exit 1 if any group
    of any model fails."""
    from .gradcheck import DIMS, STEP, TOLERANCE, check_tiny_model

    labels = [variant + "+tied" * tie for variant, tie in TRAINABLE]
    width = max(map(len, labels))
    print(f"complex step h {STEP:.0e} on a complex128 twin of the float64 model")
    ok = True
    for (label, (variant, tie)), (embed_dim, hidden_dim) in itertools.product(
            zip(labels, TRAINABLE), DIMS):
        began = time.perf_counter()
        found = check_tiny_model(args.seed, embed_dim, hidden_dim, variant=variant,
                                 tie_attention=tie)
        elapsed = time.perf_counter() - began
        head = f"{label:<{width}} d_e={embed_dim} d_h={hidden_dim}  "
        for group, (err, name, idx, analytic, numeric) in found.items():
            passed = err <= TOLERANCE
            line = f"{head}{group:<11} max rel err {err:.3e}  {'ok' if passed else 'FAIL'}"
            if not passed:
                line += (f"  worst {name}[{','.join(str(int(i)) for i in idx)}]"
                         f" analytic {analytic:.6e} vs numeric {numeric:.6e}")
                ok = False
            print(line)
        print(f"{head}elapsed {elapsed:.2f}s")
    return 0 if ok else 1


# --- attention-viz -------------------------------------------------------


def cmd_attention_viz(args) -> int:
    from .viz import write_attention_files

    params, _ = load_checkpoint(args.checkpoint)
    if params.ctx_attn is None and params.tgt_attn is None:
        raise ValueError(f"variant {params.variant!r} has no attention to visualize")
    if args.span:
        try:
            start, end = (int(p) for p in args.span.split(":"))
        except ValueError:
            raise UsageError("--span expects START:END token positions") from None
        _, offsets = tokenize_with_spans(args.sentence)
        if not (0 <= start < end <= len(offsets)):
            raise UsageError(f"span {start}:{end} outside the {len(offsets)}-token sentence")
        at = offsets[start][0]
        text, what = args.sentence[at:offsets[end - 1][1]], f"span {start}:{end}"
    else:
        text, what = args.target, f"target {args.target!r}"
        at = find_term(args.sentence, text)
    inst = _instance_from_line(params, args.sentence, text, start=at)
    if inst is None and at < 0:
        raise ValueError(f"{what} not found in the sentence; "
                         "pass --span START:END (token positions)")
    if inst is None:
        raise ValueError(f"no token of {what} is in the checkpoint vocabulary")
    # after the input checks (a refused call makes no directory), before the forward pass
    os.makedirs(args.out_dir, exist_ok=True)
    n_dropped = len(tokenize(args.sentence)) - len(inst.context_tokens)
    if n_dropped:
        print(
            f"note: {n_dropped} tokens unknown to the checkpoint "
            "vocabulary were dropped",
            file=sys.stderr,
        )
    paths, predicted = write_attention_files(args.out_dir, params, inst,
                                             basename=args.basename)
    print(f"predicted: {predicted}")
    for ext in ("svg", "html", "txt"):
        print(f"wrote {paths[ext]}")
    return 0


# --- parser --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads "-1e-3" as a value, as it reads "-0.001"; argparse of Python
    3.10 to 3.13 takes it for an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_config_flags(sub):
    sub.add_argument("--config", help="flat key=value file of defaults for these flags")
    sub.add_argument("--data-dir", help="directory with the corpus XML files "
                          "(default: $SEMEVAL_DATA_DIR, else bundled fixtures)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the subparsers that accept --config, by command."""
    parser = _Parser(
        prog="ian",
        description="Aspect-level sentiment classifier with interacting "
                    "context/target attention, built on plain numpy.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    configurable = {}

    p = configurable["stats"] = subs.add_parser(
        "stats", help="dataset polarity and target-length tables")
    _add_config_flags(p)
    p.add_argument("--category", choices=(*CATEGORIES, "both"), default="both")
    p.add_argument("--dump-dir", help="also write canonical instance dumps here")
    p.set_defaults(func=cmd_stats)

    p = configurable["train"] = subs.add_parser(
        "train", help="train a variant and write checkpoint + history")
    _add_config_flags(p)
    p.add_argument("--category", choices=CATEGORIES, default="restaurant")
    p.add_argument("--variant", choices=VARIANTS, default="ian")
    p.add_argument("--tie-attention", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--embed-dim", type=positive_int, default=300)
    p.add_argument("--hidden-dim", type=positive_int, default=300)
    p.add_argument("--epochs", type=positive_int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--batch-size", type=positive_int)
    p.add_argument("--seed", type=nonnegative_int)
    p.add_argument("--clip-norm", type=optional_float)
    p.add_argument("--freeze-embeddings", action=argparse.BooleanOptionalAction)
    p.add_argument("--no-shuffle", action="store_false", dest="shuffle")
    p.add_argument("--embeddings", dest="embeddings_path",
                   help="pretrained word-vector text file")
    p.add_argument("--checkpoint", help="output checkpoint path (default out_dir/model.npz)")
    p.add_argument("--history", help="output history path (default out_dir/history.txt)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_train, **asdict(TrainConfig()))

    p = configurable["eval"] = subs.add_parser(
        "eval", help="score a checkpoint on a data split")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--category", choices=CATEGORIES,
                   help="default: the checkpoint's training category")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", help="also write a machine-readable TSV report here")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("predict", help="label sentence<TAB>target lines from a file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="one record per line: sentence<TAB>target[<TAB>gold]")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("gradcheck",
                        help="complex-step check of the backward pass of every trainable layout")
    p.add_argument("--seed", type=nonnegative_int, default=27)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("attention-viz",
                        help="render attention weights for one sentence/target")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--span", help="START:END token positions when the target "
                                  "text is not found verbatim")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--basename", default="attention")
    p.set_defaults(func=cmd_attention_viz)

    return parser, configurable


def main(argv=None) -> int:
    # what exists once imports finish lives until exit: keep it out of every
    # collection during the run and out of the sweep at shutdown. Once per
    # process: a later call would freeze, and so never free, what earlier calls
    # left behind
    if not gc.get_freeze_count():
        gc.freeze()
    parser, configurable = build_parser()
    args = parser.parse_args(argv)
    # a warning the run prints is one line, without its source file and echo
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        if getattr(args, "config", None):
            # file values become defaults, so flags given in argv still win
            configurable[args.command].set_defaults(
                **config_defaults(args.config, configurable, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, UsageError) else 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
