import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ian.evaluate
import ian.gradcheck
import ian.model
from _corrupt import double_group
from _damage import CENTRAL_ENTRY_EDITS, edit_central_entry
from ian.cli import build_parser, main, read_config_file
from ian.data import RawReview, build_instances, load_category, load_reviews
from ian.embeddings import Vocabulary
from ian.evaluate import predict_all
from ian.lstm import lstm_forward
from ian.gradcheck import group_of
from ian.model import (
    LABELS,
    TRAINABLE,
    VARIANTS,
    ModelParams,
    load_checkpoint,
    save_checkpoint,
)
from ian.numerics import Rng
from ian.training import TrainConfig
from ian.viz import render_svg, weight_dump


FIXTURES = Path(ian.evaluate.__file__).parent / "fixtures"


def run(argv):
    return main(list(argv))


# --- parser and config file ----------------------------------------------


def test_help_exits_zero_for_every_subcommand(capsys):
    for sub in ("stats", "train", "eval", "predict", "gradcheck", "attention-viz"):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out


def readme_usage_flags():
    """{subcommand: its long flags} from the usage block under README's CLI heading."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    flags = {}
    for line in block.splitlines():
        if line.startswith("ian "):
            command = line.split()[1]
            flags[command] = set()
        flags[command].update(re.findall(r"--[a-z][a-z0-9-]*", line))
    return flags


def test_readme_usage_block_names_every_flag_and_no_other():
    parser, _ = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {command: {flag for action in sub._actions for flag in action.option_strings
                       if flag.startswith("--") and flag != "--help"}
             for command, sub in subs.choices.items()}
    assert readme_usage_flags() == flags


def test_unknown_flag_fails_fast(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n\nepochs = 3\nlearning_rate=0.5\n  category =  laptop \n",
        encoding="utf-8",
    )
    assert read_config_file(str(cfg)) == {
        "epochs": "3",
        "learning_rate": "0.5",
        "category": "laptop",
    }


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("category = laptop\n", encoding="utf-8-sig")
    assert read_config_file(str(cfg)) == {"category": "laptop"}
    assert run(["stats", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_read_config_file_rejects_unknown_key_and_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n", encoding="utf-8")
    assert run(["train", "--config", str(bad)]) == 1
    assert "bogus_key" in assert_one_error_line_naming(capsys, bad)
    bad.write_text("epochs\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(str(bad))


def test_config_values_feed_train_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epochs = 2\nembed_dim = 8\nhidden_dim = 8\nseed = 5\n"
        "category = laptop\ndropout = 0\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a"
    assert run(["train", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    history = (out_a / "history.txt").read_text()
    assert len(history.strip().splitlines()) == 1 + 2  # header + 2 epochs

    out_b = tmp_path / "b"
    assert run(["train", "--config", str(cfg), "--epochs", "1",
                "--out-dir", str(out_b)]) == 0
    assert len((out_b / "history.txt").read_text().strip().splitlines()) == 1 + 1


def test_clip_norm_none_from_flag_and_config_file(tmp_path, capsys):
    base = ["train", *TINY, "--epochs", "1"]
    assert run([*base, "--clip-norm", "none", "--out-dir", str(tmp_path / "a")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clip_norm = none\n", encoding="utf-8")
    assert run([*base, "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    cfg_num = tmp_path / "num.cfg"
    cfg_num.write_text("clip_norm = 0.5\n", encoding="utf-8")
    assert run([*base, "--config", str(cfg_num), "--out-dir", str(tmp_path / "c")]) == 0
    assert run([*base, "--config", str(cfg), "--clip-norm", "0.25",
                "--out-dir", str(tmp_path / "d")]) == 0
    assert run([*base, "--config", str(cfg_num), "--clip-norm", "none",
                "--out-dir", str(tmp_path / "e")]) == 0
    got = [load_checkpoint(str(tmp_path / d / "model.npz"))[1]["config"]["clip_norm"]
           for d in "abcde"]
    assert got == [None, None, 0.5, 0.25, None]


def test_non_utf8_config_file_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\xe9 settings\nepochs = 1\n".encode("latin-1"))
    assert run(["train", "--config", str(cfg)]) == 1
    assert_one_error_line_naming(capsys, cfg)


# a non-default value for every TrainConfig field: (config text, parsed value)
FIELD_SAMPLES = {
    "epochs": ("2", 2),
    "learning_rate": ("0.05", 0.05),
    "momentum": ("0.5", 0.5),
    "l2": ("0.001", 0.001),
    "dropout": ("0.25", 0.25),
    "batch_size": ("4", 4),
    "seed": ("7", 7),
    "clip_norm": ("1.5", 1.5),
    "freeze_embeddings": ("yes", True),
    "shuffle": ("off", False),
}


@pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)])
def test_checkpoint_records_every_train_config_field(tmp_path, capsys, field):
    text, value = FIELD_SAMPLES[field]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{field} = {text}\n", encoding="utf-8")
    flags = {"shuffle": ["--no-shuffle"], "epochs": ["--epochs", "1"]}
    argv = ["train", "--category", "laptop", "--embed-dim", "4", "--hidden-dim", "4",
            *itertools.chain.from_iterable(v for k, v in flags.items() if k != field),
            "--config", str(cfg), "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    config = load_checkpoint(str(tmp_path / "model.npz"))[1]["config"]
    assert set(config) == {"category", *FIELD_SAMPLES}
    assert config["category"] == "laptop" and config["shuffle"] is False
    assert config[field] == value


def test_one_config_file_serves_train_eval_and_stats(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("epochs = 1\nembed_dim = 8\nhidden_dim = 8\ncategory = laptop\n",
                   encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert run(["eval", "--config", str(cfg),
                "--checkpoint", str(tmp_path / "model.npz")]) == 0
    assert "laptop test" in capsys.readouterr().out
    assert run(["stats", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "laptop train" in out and "restaurant" not in out

    cfg.write_text("epochs = x\ncategory = laptop\n", encoding="utf-8")
    assert run(["train", "--config", str(cfg)]) == 1
    assert "epochs" in assert_one_error_line_naming(capsys, cfg)


@pytest.mark.parametrize("entry,cause", [
    ("freeze_embeddings = maybe", "config key freeze_embeddings: expects a boolean, "
                                  "got 'maybe'"),
    ("variant = bert", f"config key variant: expects one of {', '.join(VARIANTS)}, "
                       "got 'bert'"),
])
def test_config_value_a_flag_would_refuse_is_one_error_line(tmp_path, capsys, entry, cause):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{entry}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["train", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {cause}\n"
    assert not out.exists()


def test_clip_norm_rejects_a_word_other_than_none(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--clip-norm", "off"])
    assert exc.value.code == 2
    assert "--clip-norm" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "inf"), ("--momentum", "nan"), ("--l2", "nan"),
    ("--clip-norm", "-1"), ("--clip-norm", "nan"),
])
def test_train_value_flags_reject_what_cannot_train(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "out"
    assert run(["train", *TINY, "--out-dir", str(out_dir), flag, value]) == 1
    err = capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    assert err.count("\n") == 1 and err.startswith(f"error: {field} must"), err
    assert not out_dir.exists()


TRAIN_ARGS = ["train", "--category", "laptop", "--embed-dim", "3", "--hidden-dim", "3",
              "--epochs", "1"]


@pytest.mark.parametrize("argv,flag", [
    (TRAIN_ARGS, "--epochs"), (TRAIN_ARGS, "--embed-dim"), (TRAIN_ARGS, "--hidden-dim"),
    (TRAIN_ARGS, "--batch-size"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_count_flags_take_positive_integers_only(tmp_path, capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out-dir", str(tmp_path), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expects a positive integer, got {value}" in err, err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no history


def test_count_flag_in_a_config_file_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 0\n", encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    line = assert_one_error_line_naming(capsys, cfg)
    assert "config key epochs: expects a positive integer, got 0" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [TRAIN_ARGS, ["gradcheck"]])
def test_seed_flags_take_non_negative_integers_only(tmp_path, capsys, argv):
    out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "train" else []
    with pytest.raises(SystemExit) as exc:
        run([*argv, *out_dir, "--seed", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expects an integer >= 0, got -3" in err, err
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_in_a_config_file_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -3\n", encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    line = assert_one_error_line_naming(capsys, cfg)
    assert "config key seed: expects an integer >= 0, got -3" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--checkpoint", "--history", "--out-dir"])
def test_train_refuses_an_unwritable_output_path_before_training(tmp_path, capsys, flag):
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    path = a_file if flag == "--out-dir" else tmp_path / "missing" / "dir" / "out.txt"
    out_dir = [] if flag == "--out-dir" else ["--out-dir", str(tmp_path / "out")]
    assert run([*TRAIN_ARGS, *out_dir, flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert "epoch" not in captured.out, captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0], lines
    assert not (tmp_path / "out" / "history.txt").exists()


@pytest.mark.parametrize("flag", ["--checkpoint", "--history"])
def test_train_refuses_an_output_path_that_is_a_directory(tmp_path, capsys, flag):
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    assert run([*TRAIN_ARGS, "--out-dir", str(tmp_path / "out"), flag, str(a_dir)]) == 1
    captured = capsys.readouterr()
    assert "epoch" not in captured.out, captured.out
    lines = captured.err.splitlines()
    assert lines == [f"error: cannot write {a_dir}: it is a directory"], lines
    assert not list(tmp_path.glob("a_dir*.npz")) and not any(a_dir.iterdir())


def test_train_writes_the_checkpoint_path_as_named(tmp_path, capsys):
    named = tmp_path / "mymodel"
    assert run([*TRAIN_ARGS, "--out-dir", str(tmp_path), "--checkpoint", str(named)]) == 0
    assert f"wrote {named} and " in capsys.readouterr().out
    assert named.is_file() and not (tmp_path / "mymodel.npz").exists()
    assert run(["eval", "--checkpoint", str(named)]) == 0


def test_train_takes_a_negative_momentum_in_exponent_form(tmp_path, capsys):
    assert run([*TRAIN_ARGS, "--out-dir", str(tmp_path), "--momentum", "-1e-1"]) == 0
    assert (tmp_path / "model.npz").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--l2", "-1e-3", "l2 must be finite and >= 0, got -0.001"),
    ("--learning-rate", "-1e-2", "learning_rate must be finite and >= 0, got -0.01"),
])
def test_train_negative_exponent_values_reach_the_config_check(tmp_path, capsys, flag,
                                                               value, message):
    assert run([*TRAIN_ARGS, "--out-dir", str(tmp_path / "out"), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# --- stats ----------------------------------------------------------------


def test_stats_fixture_counts(capsys):
    assert run(["stats"]) == 0
    out = capsys.readouterr().out
    assert "restaurant train: 20 instances" in out
    assert "positive 11  neutral 5  negative 4" in out
    assert "1: 11/0.5500" in out
    assert "dropped 1 conflict" in out
    assert "laptop train: 14 instances" in out
    assert "2: 9/0.6429" in out
    assert "laptop test: 5 instances" in out


def test_stats_notes_every_dropped_and_repaired_term(tmp_path, capsys):
    # food: kept; food/conflict and service/mixed: dropped by polarity;
    # great: wrong offsets, found elsewhere; pizza: wrong offsets, nowhere;
    # " ": no token; "slow .": wrong offsets, not found verbatim, found as tokens
    text = "The food was great but the service was slow."
    terms = [("food", "positive", 4, 8), ("food", "conflict", 4, 8),
             ("service", "mixed", 27, 34), ("great", "positive", 0, 5),
             ("pizza", "negative", 100, 105), (" ", "negative", 3, 4),
             ("slow .", "negative", 200, 206)]
    xml = (f"<sentences><sentence id=\"1\"><text>{text}</text><aspectTerms>"
           + "".join(f"<aspectTerm term=\"{t}\" polarity=\"{p}\" from=\"{a}\" to=\"{b}\" />"
                     for t, p, a, b in terms)
           + "</aspectTerms></sentence></sentences>\n")
    data = tmp_path / "data"
    data.mkdir()
    for name in ("Restaurants_Train_v2.xml", "Restaurants_Test_Gold.xml"):
        (data / name).write_text(xml, encoding="utf-8")
    with pytest.warns(UserWarning):
        assert run(["stats", "--category", "restaurant", "--data-dir", str(data)]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if "note" in line]
    assert notes == ["  note  dropped 1 conflict, dropped 1 unknown polarity, "
                     "dropped 2 unlocatable/empty, 1 span fallbacks, 3 offsets realigned"] * 2


def test_stats_on_a_sentence_without_text_is_one_error_line(tmp_path, capsys):
    xml = ('<sentences><sentence id="3"><aspectTerms><aspectTerm term="food" '
           'polarity="positive" from="0" to="4"/></aspectTerms></sentence></sentences>\n')
    data = tmp_path / "data"
    data.mkdir()
    for name in ("Restaurants_Train_v2.xml", "Restaurants_Test_Gold.xml"):
        (data / name).write_text(xml, encoding="utf-8")
    assert run(["stats", "--category", "restaurant", "--data-dir", str(data)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {data / 'Restaurants_Train_v2.xml'}: sentence 3 has no text node\n")


def test_stats_single_category(capsys):
    assert run(["stats", "--category", "laptop"]) == 0
    out = capsys.readouterr().out
    assert "laptop train" in out and "restaurant" not in out


def test_stats_missing_data_dir_fails(capsys):
    assert run(["stats", "--data-dir", "/no/such/place"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stats_writes_instance_dumps(tmp_path, capsys):
    dump_dir = tmp_path / "dumps"
    assert run(["stats", "--dump-dir", str(dump_dir)]) == 0
    files = sorted(os.listdir(dump_dir))
    assert files == [
        "laptop_test.txt",
        "laptop_train.txt",
        "restaurant_test.txt",
        "restaurant_train.txt",
    ]
    lines = (dump_dir / "restaurant_train.txt").read_text().strip().splitlines()
    assert len(lines) == 20
    assert all(len(line.split("\t")) == 4 for line in lines)


def test_stats_refuses_a_dump_dir_that_is_a_file_before_any_table(tmp_path, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    assert run(["stats", "--category", "restaurant", "--dump-dir", str(a_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(a_file) in lines[0], lines


# --- train ----------------------------------------------------------------

TINY = ["--category", "laptop", "--embed-dim", "8", "--hidden-dim", "8",
        "--epochs", "2", "--seed", "3"]


def test_train_writes_deterministic_history_and_checkpoint(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["train", *TINY, "--out-dir", str(out_a)]) == 0
    assert run(["train", *TINY, "--out-dir", str(out_b)]) == 0
    hist_a = (out_a / "history.txt").read_bytes()
    assert hist_a == (out_b / "history.txt").read_bytes()
    assert hist_a.startswith(b"# epoch\tloss\ttrain_acc\teval_acc\n")

    params_a, meta_a = load_checkpoint(str(out_a / "model.npz"))
    params_b, _ = load_checkpoint(str(out_b / "model.npz"))
    for (name, arr_a), (_, arr_b) in zip(
        params_a.named_arrays(),
        params_b.named_arrays(),
    ):
        assert np.array_equal(arr_a, arr_b), name
    assert meta_a["config"]["epochs"] == 2
    assert meta_a["config"]["category"] == "laptop"


def test_train_scores_the_test_split_once(tmp_path, monkeypatch, capsys):
    # one epoch: train accuracy, then test accuracy, whose report cmd_train prints
    calls = []

    def counted(params, instances):
        calls.append(len(instances))
        return predict_all(params, instances)

    monkeypatch.setattr(ian.evaluate, "predict_all", counted)
    assert run(["train", *TINY, "--epochs", "1", "--out-dir", str(tmp_path)]) == 0
    train_ds, test_ds, _ = load_category("laptop")
    assert calls == [len(train_ds.instances), len(test_ds.instances)]
    assert "on laptop test: accuracy" in capsys.readouterr().out


def test_train_lr_zero_leaves_params_at_init(tmp_path):
    out = tmp_path / "run"
    assert run(["train", *TINY, "--learning-rate", "0", "--out-dir", str(out)]) == 0
    saved, _ = load_checkpoint(str(out / "model.npz"))

    # rebuild the init exactly as cmd_train does: one seeded stream
    train_ds, _, _ = load_category("laptop")
    fresh = ModelParams(Rng(3), train_ds.vocab, variant="ian",
                        embed_dim=8, hidden_dim=8)
    for (name, arr), (_, ref) in zip(
        saved.named_arrays(),
        fresh.named_arrays(),
    ):
        assert np.array_equal(arr, ref), name


def test_train_majority_skips_optimization(tmp_path, capsys):
    out = tmp_path / "m"
    assert run(["train", "--variant", "majority", "--category", "restaurant",
                "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "majority priors" in printed
    assert "epoch" not in printed  # no optimization loop
    history = (out / "history.txt").read_text().strip().splitlines()
    assert len(history) == 2  # header + single entry
    params, _ = load_checkpoint(str(out / "model.npz"))
    # restaurant fixture train counts 11/5/4 out of 20
    assert np.allclose(params.class_priors, [0.55, 0.25, 0.20])


@pytest.mark.parametrize("variant", ["ian", "majority"])
def test_train_refuses_an_empty_training_split(tmp_path, capsys, variant):
    data = tmp_path / "data"
    data.mkdir()
    (data / "Restaurants_Train_v2.xml").write_text("<sentences/>\n", encoding="utf-8")
    (data / "Restaurants_Test_Gold.xml").write_bytes(
        (FIXTURES / "restaurant_test.xml").read_bytes())
    out = tmp_path / "out"
    assert run(["train", "--variant", variant, "--category", "restaurant", "--data-dir",
                str(data), "--embed-dim", "4", "--hidden-dim", "4", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_train_refuses_an_empty_test_split_before_training(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "Restaurants_Train_v2.xml").write_bytes(
        (FIXTURES / "restaurant_train.xml").read_bytes())
    (data / "Restaurants_Test_Gold.xml").write_text(
        "<sentences><sentence id=\"1\"><text>The food was fine.</text><aspectTerms>"
        "<aspectTerm term=\"food\" polarity=\"conflict\" from=\"4\" to=\"8\" />"
        "</aspectTerms></sentence></sentences>\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["train", "--data-dir", str(data), "--embed-dim", "4", "--hidden-dim", "4",
                "--epochs", "3", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: no usable test instance\n"
    assert not out.exists()


def test_train_loads_vectors_with_trailing_spaces(tmp_path, capsys):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("the 0.1 0.2 0.3 \nbattery 0.4 0.5 0.6\t\r\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([*TRAIN_ARGS, "--embeddings", str(vecs), "--out-dir", str(out)]) == 0
    assert "pretrained vectors: 2 hits" in capsys.readouterr().out
    params, _ = load_checkpoint(str(out / "model.npz"))
    assert params.embeddings.shape[1] == 3


@pytest.mark.parametrize("row,bad", [
    ("the 0.1 x 0.3", "'x'"),
    ("the 0.1 nan 0.3", "'nan'"),
    ("the 0.1 1e308 0.3", "'1e308'"),
    ("the 0.1 0.2", "has 2 values, expected 3"),
])
def test_train_refuses_a_bad_vector_row_in_one_line(tmp_path, capsys, row, bad):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text(f"unknownword 1 2\nzz x y z\n{row}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([*TRAIN_ARGS, "--embeddings", str(vecs), "--out-dir", str(out)]) == 1
    line = assert_one_error_line_naming(capsys, f"{vecs}:3: ")
    assert "'the'" in line and bad in line, line
    assert not out.exists()


def test_train_names_a_vectors_file_that_is_not_utf8(tmp_path, capsys):
    vecs = tmp_path / "latin1.txt"
    vecs.write_bytes("the 0.1 0.2 0.3\ncaf\xe9 0.4 0.5 0.6\n".encode("latin-1"))
    out = tmp_path / "out"
    assert run([*TRAIN_ARGS, "--embeddings", str(vecs), "--out-dir", str(out)]) == 1
    line = assert_one_error_line_naming(capsys, vecs)
    assert line.startswith(f"error: cannot read {vecs}: 'utf-8' codec can't decode"), line
    assert not out.exists()


# --- eval / predict -------------------------------------------------------


def trained_checkpoint(tmp_path, capsys):
    out = tmp_path / "ckpt"
    assert run(["train", *TINY, "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    final = re.search(r"accuracy (\d+)/(\d+) = (0\.\d{4})", printed)
    assert final is not None
    return str(out / "model.npz"), final.group(0)


def test_eval_matches_train_final_accuracy(tmp_path, capsys):
    ckpt, final_line = trained_checkpoint(tmp_path, capsys)
    tsv = tmp_path / "report.tsv"
    assert run(["eval", "--checkpoint", ckpt, "--out", str(tsv)]) == 0
    printed = capsys.readouterr().out
    assert final_line in printed  # checkpoint round trip, same accuracy
    header, row = tsv.read_text().strip().splitlines()
    assert header.split("\t")[:2] == ["variant", "dataset"]
    assert row.split("\t")[0] == "ian"


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("where", ["directory", "missing"])
def test_eval_and_predict_refuse_an_unwritable_output_before_reading(tmp_path, capsys,
                                                                     command, where):
    ckpt = tmp_path / "model.npz"
    save_checkpoint(str(ckpt), ModelParams(Rng(0), Vocabulary(["the", "food"]), variant="ian",
                                           embed_dim=3, hidden_dim=3))
    src = tmp_path / "in.txt"
    src.write_text("the food\tfood\tpositive\n", encoding="utf-8")
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    argv = {"eval": ["eval", "--checkpoint", str(ckpt), "--out", str(path)],
            "predict": ["predict", "--checkpoint", str(ckpt), "--input", str(src),
                        "--output", str(path)]}
    assert run(argv[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "it is a directory" if where == "directory" else "its directory does not exist"
    assert captured.err.splitlines() == [f"error: cannot write {path}: {reason}"]


def test_eval_missing_checkpoint_fails(capsys):
    assert run(["eval", "--checkpoint", "/no/file.npz"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "not_zip"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_corrupt_checkpoint_fails_with_one_error_line(tmp_path, capsys, command, damage):
    path = tmp_path / "model.npz"
    params = ModelParams(Rng(0), Vocabulary(["the", "food"]), variant="ian", embed_dim=3,
                         hidden_dim=3)
    save_checkpoint(str(path), params)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2] if damage == "truncated" else b"not a model\n")
    src = tmp_path / "in.txt"
    src.write_text("the food\tfood\n", encoding="utf-8")
    argv = {"eval": ["eval", "--checkpoint", str(path)],
            "predict": ["predict", "--checkpoint", str(path), "--input", str(src)]}
    assert run(argv[command]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


@pytest.mark.parametrize("field", CENTRAL_ENTRY_EDITS)
def test_unsupported_zip_entry_fails_with_one_error_line(tmp_path, capsys, field):
    path = tmp_path / "model.npz"
    params = ModelParams(Rng(0), Vocabulary(["the", "food"]), variant="ian", embed_dim=3,
                         hidden_dim=3)
    save_checkpoint(str(path), params)
    path.write_bytes(edit_central_entry(path.read_bytes(), field))
    src = tmp_path / "in.txt"
    src.write_text("the food\tfood\n", encoding="utf-8")
    assert run(["predict", "--checkpoint", str(path), "--input", str(src)]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot load checkpoint {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", ["ian", "majority"])
def test_checkpoint_with_a_fourth_class_is_one_error_line(tmp_path, capsys, variant):
    # a checkpoint whose metadata and classifier arrays say four classes,
    # where the label set has three; the fourth class wins every line
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), ModelParams(Rng(0), Vocabulary(["the", "food"]),
                                           variant=variant, embed_dim=3, hidden_dim=3))
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    arrays["__meta__"] = np.array(json.dumps({**meta, "n_classes": 4}))
    if variant == "majority":
        arrays["class_priors"] = np.array([0.1, 0.1, 0.1, 0.7])
    else:
        arrays["W_l"] = np.concatenate([arrays["W_l"], np.zeros_like(arrays["W_l"][:1])])
        arrays["b_l"] = np.array([0.0, 0.0, 0.0, 10.0])
    np.savez(path, **arrays)
    src = tmp_path / "in.txt"
    src.write_text("the food\tfood\n", encoding="utf-8")
    assert run(["predict", "--checkpoint", str(path), "--input", str(src)]) == 1
    assert_one_error_line_naming(capsys, path)


@pytest.mark.parametrize("config", [[], "x"], ids=["list", "text"])
def test_eval_checkpoint_whose_config_is_not_an_object_is_one_error_line(tmp_path, capsys,
                                                                         config):
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), ModelParams(Rng(0), Vocabulary(["the", "food"]),
                                           variant="ian", embed_dim=3, hidden_dim=3))
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays["__meta__"]))
    arrays["__meta__"] = np.array(json.dumps({**meta, "config": config}))
    np.savez(path, **arrays)
    assert run(["eval", "--checkpoint", str(path)]) == 1
    line = assert_one_error_line_naming(capsys, path)
    assert line.endswith("__meta__ config is not an object"), line


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_labels_equal_predict_all(tmp_path, capsys, variant):
    train_ds, _, _ = load_category("laptop")
    params = ModelParams(Rng(4), train_ds.vocab, variant=variant, embed_dim=4, hidden_dim=4)
    for _, arr in params.named_arrays():
        arr *= 10.0  # spread the classes so the labels differ between lines
    if variant == "majority":
        params.class_priors[:] = [0.2, 0.3, 0.5]
    ckpt = str(tmp_path / "model.npz")
    save_checkpoint(ckpt, params)

    reviews = [RawReview(r.text, [t]) for r in load_reviews("laptop", "test")[0]
               for t in r.terms if r.text.count(t.text) == 1 and t.polarity != "conflict"]
    instances, _ = build_instances(reviews, train_ds.vocab)
    src = tmp_path / "in.txt"
    src.write_text("".join(f"{r.text}\t{r.terms[0].text}\n" for r in reviews),
                   encoding="utf-8")
    dst = tmp_path / "out.txt"
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src),
                "--output", str(dst)]) == 0
    expected = [LABELS[k] for k in predict_all(params, instances)]
    assert len(expected) == len(reviews) >= 3
    assert dst.read_text().splitlines() == expected


def test_predict_labels_warnings_and_gold_summary(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    src = tmp_path / "in.txt"
    src.write_text(
        "The battery life impressed everyone.\tbattery life\n"
        "poor keyboard but a fine screen\tkeyboard\tnegative\n"
        "no tab separator here\n"
        "bad gold value\tgold\tgreat\n",
        encoding="utf-8",
    )
    dst = tmp_path / "out.txt"
    rc = run(["predict", "--checkpoint", ckpt, "--input", str(src),
              "--output", str(dst)])
    assert rc == 1  # some lines failed
    captured = capsys.readouterr()
    lines = dst.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] in ("positive", "neutral", "negative")
    assert lines[1] in ("positive", "neutral", "negative")
    assert lines[2] == "?" and lines[3] == "?"
    assert "line 3" in captured.err and "line 4" in captured.err
    assert "gold given for 1 lines" in captured.out


def test_predict_gold_summary_counts_gold_lines_it_could_not_label(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    src = tmp_path / "in.txt"
    src.write_text(
        "Battery life stretches past ten hours.\tBattery life\tpositive\n"
        "The touch pad jumps around while typing.\ttouch pad\tnegative\n"
        "Fan noise drowns out quiet scenes.\tFan noise\tnegative\n"
        "zzzz everywhere\tzzzz\tneutral\n"
        "my laptop is new\tlaptop\tpositive\n"
        "Boot time sits around twelve seconds.\tBoot time\n",
        encoding="utf-8",
    )
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3:5] == ["?", "?"]
    assert re.fullmatch(r"gold given for 5 lines, 2 of them unlabelled \(\?\): "
                        r"accuracy 0\.\d{4} over the other 3", out[-1])
    # no gold line labelled: the count alone, no accuracy over zero lines
    src.write_text("zzzz everywhere\tzzzz\tneutral\nmy laptop is new\tlaptop\tpositive\n",
                   encoding="utf-8")
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "?", "?", "gold given for 2 lines, 2 of them unlabelled (?)"]


def test_predict_reports_each_unusable_line_once(tmp_path):
    ckpt = tiny_checkpoint(tmp_path)
    src = tmp_path / "in.txt"
    src.write_text(
        "the food\tfood\n"
        "the food\tpizza\n"  # not in the sentence
        "the soup\tsoup\n"  # no known token
        "no tab here\n"
        "the food\tfood\tgreat\n",
        encoding="utf-8",
    )
    # a fresh interpreter, so stderr holds whatever warnings would print
    done = subprocess.run(
        [sys.executable, "-m", "ian.cli", "predict", "--checkpoint", ckpt, "--input", str(src)],
        env={**os.environ, "PYTHONPATH": str(Path(ian.evaluate.__file__).parents[1])},
        capture_output=True, text=True)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert [line.split(":")[:2] for line in lines] == [
        ["warning", f" line {n}"] for n in (2, 3, 4, 5)], done.stderr


def test_eval_prints_each_warning_as_one_line(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)  # laptop vocabulary
    # a fresh interpreter, so stderr holds whatever warnings would print
    done = subprocess.run(
        [sys.executable, "-m", "ian.cli", "eval", "--checkpoint", ckpt,
         "--split", "train", "--category", "restaurant"],
        env={**os.environ, "PYTHONPATH": str(Path(ian.evaluate.__file__).parents[1])},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert any(line.startswith("warning: target ") for line in lines), done.stderr
    assert all(line.startswith(("warning: ", "note: ")) for line in lines), done.stderr


def test_in_process_callers_keep_their_warning_capture(tmp_path, capsys):
    before = warnings.formatwarning
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    with pytest.warns(UserWarning, match="instance dropped"):
        assert run(["eval", "--checkpoint", ckpt, "--split", "train",
                    "--category", "restaurant"]) == 0
    assert warnings.formatwarning is before
    assert "warning:" not in capsys.readouterr().err


def test_predict_empty_input_empty_output(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    dst = tmp_path / "out.txt"
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src),
                "--output", str(dst)]) == 0
    assert dst.read_text() == ""


def test_predict_skips_blank_and_whitespace_only_lines(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    src = tmp_path / "in.txt"
    src.write_text("\n   \nthe food\tfood\n\t \n\nthe food\tthe\n", encoding="utf-8")
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert set(captured.out.splitlines()) <= set(LABELS) and captured.err == ""


def test_predict_target_longer_than_its_sentence_is_unlabelled(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    src = tmp_path / "in.txt"
    src.write_text("food\tthe food\n", encoding="utf-8")
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src)]) == 1
    assert capsys.readouterr() == (
        "?\n", "warning: line 1: target 'the food' not usable in this sentence\n")


def test_predict_gold_free_prints_labels_only(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    src = tmp_path / "in.txt"
    src.write_text("The battery life is fine.\tbattery life\n", encoding="utf-8")
    dst = tmp_path / "out.txt"
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src),
                "--output", str(dst)]) == 0
    assert "accuracy" not in capsys.readouterr().out
    assert dst.read_text().strip() in ("positive", "neutral", "negative")


def tiny_checkpoint(tmp_path):
    path = tmp_path / "model.npz"
    params = ModelParams(Rng(0), Vocabulary(["the", "food"]), variant="ian", embed_dim=3,
                         hidden_dim=3)
    save_checkpoint(str(path), params)
    return str(path)


def assert_one_error_line_naming(capsys, path):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0], err
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("bad_input", ["missing", "directory", "not_utf8"])
def test_failing_predict_leaves_existing_output_intact(tmp_path, capsys, bad_input):
    ckpt = tiny_checkpoint(tmp_path)
    src = {"missing": tmp_path / "no_such.txt", "directory": tmp_path,
           "not_utf8": tmp_path / "latin1.txt"}[bad_input]
    if bad_input == "not_utf8":
        src.write_bytes("the food was tr\xe8s bon\tfood\n".encode("latin-1"))
    dst = tmp_path / "keep.txt"
    dst.write_bytes(b"an earlier run's labels\npositive\n")
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src),
                "--output", str(dst)]) == 1
    assert_one_error_line_naming(capsys, src)
    assert dst.read_bytes() == b"an earlier run's labels\npositive\n"


def test_predict_input_directory_is_one_error_line(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    assert run(["predict", "--checkpoint", ckpt, "--input", str(tmp_path)]) == 1
    assert_one_error_line_naming(capsys, tmp_path)


def test_predict_non_utf8_input_names_the_file(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    src = tmp_path / "latin1.txt"
    src.write_bytes("caf\xe9 food\tfood\n".encode("latin-1"))
    assert run(["predict", "--checkpoint", ckpt, "--input", str(src)]) == 1
    assert_one_error_line_naming(capsys, src)


# --- gradcheck --------------------------------------------------------


def layout_groups():
    """(report label, its groups in report order) per trainable layout."""
    for variant, tie in TRAINABLE:
        model = ModelParams(None, Vocabulary([]), variant=variant, embed_dim=3, hidden_dim=3,
                            tie_attention=tie)
        groups = dict.fromkeys(group_of(name) for name, _ in model.named_arrays())
        yield variant + "+tied" * tie, tuple(groups)


def test_gradcheck_all_variants_passes(capsys):
    # the real sweep: every trainable layout, tied ones under a name of their
    # own, at both dims, in a name column as wide as the longest name
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    layouts = list(layout_groups())
    assert len(layouts) == 8
    assert ("no_interaction+tied",
            ("embeddings", "ctx_lstm", "tgt_lstm", "ctx_attn", "classifier")) in layouts
    width = len("no_interaction+tied")
    for (label, groups), dims in itertools.product(layouts, ("d_e=3 d_h=3", "d_e=8 d_h=5")):
        head = f"{label:<{width}} {dims}  "
        for group in groups:
            assert re.search(rf"^{re.escape(head)}{group:<11} max rel err \S+  ok$", out, re.M), (
                head, group)
        assert re.search(rf"^{re.escape(head)}elapsed \d+\.\d\ds$", out, re.M), head
    assert out.count("elapsed") == 16
    assert out.count("max rel err") == 2 * sum(len(groups) for _, groups in layouts) == 76
    assert "FAIL" not in out


def test_gradcheck_cli_single_dim_passes(capsys, monkeypatch):
    # every layout at one dims pair: every group of every model is ok
    monkeypatch.setattr(ian.gradcheck, "DIMS", ((3, 3),))
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("elapsed") == len(TRAINABLE) == 8
    for group in ("embeddings", "ctx_lstm", "tgt_lstm", "ctx_attn",
                  "tgt_attn", "classifier"):
        assert re.search(rf"{group}\s+max rel err \S+  ok", out)


def test_gradcheck_cli_detects_corruption(capsys, monkeypatch):
    # every layout at one dims pair: a doubled ctx_lstm fails in each of them
    monkeypatch.setattr(ian.gradcheck, "DIMS", ((3, 3),))
    double_group(monkeypatch, "ctx_lstm")
    assert run(["gradcheck"]) == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == len(TRAINABLE) == 8
    assert all(re.search(r"ctx_lstm\s+max rel err \S+  FAIL  worst ctx_lstm\.", line)
               for line in fails), fails


def test_gradcheck_fails_and_names_a_nan_gradient(capsys, monkeypatch):
    # a NaN in the first array of a group must not be replaced by the
    # finite errors of the arrays after it
    real = ian.gradcheck.loss_and_grads

    def nan_grads(*args, grads=None, **kwargs):
        loss = real(*args, grads=grads, **kwargs)
        if grads is not None:
            grads["ctx_lstm.W_x"][0, 0] = np.nan
        return loss

    monkeypatch.setattr(ian.gradcheck, "DIMS", ((3, 3),))
    monkeypatch.setattr(ian.gradcheck, "loss_and_grads", nan_grads)
    assert run(["gradcheck"]) == 1
    out = capsys.readouterr().out
    nan_line = (r"ctx_lstm\s+max rel err nan  FAIL  worst ctx_lstm\.W_x\[0,0\] "
                r"analytic nan vs numeric \S+$")
    assert len(re.findall(nan_line, out, re.M)) == out.count("FAIL") == 8, out


def test_gradcheck_all_variants_fails_on_one_corrupt_group(capsys, monkeypatch):
    # a doubled tgt_attn fails where that group exists: in the two untied
    # layouts with two attentions, and not in their tied twins, which hold
    # one attention, under the context name
    monkeypatch.setattr(ian.gradcheck, "DIMS", ((3, 3),))
    double_group(monkeypatch, "tgt_attn")
    assert run(["gradcheck"]) == 1
    fails = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if "FAIL" in line]
    assert fails == ["ian", "no_interaction"]


def test_gradcheck_has_no_corruption_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--corrupt-group", "ctx_lstm"])
    assert exc.value.code == 2
    assert "--corrupt-group" in capsys.readouterr().err


def test_gradcheck_has_no_eps_flag(capsys):
    # the complex step h is fixed: any tiny h gives the same derivatives
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--eps", "1e-5"])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--ctx-len", "4"), ("--tgt-len", "2"), ("--l2", "0.01"), ("--tolerance", "1e-4"),
    ("--variant", "all"), ("--tie-attention", None), ("--embed-dim", "3"),
    ("--hidden-dim", "3"),
])
def test_gradcheck_runs_one_fixed_probe(capsys, flag, value):
    # the probe's lengths, its L2 penalty and the tolerance are constants of
    # ian.gradcheck, and the models it checks are model.TRAINABLE at
    # gradcheck.DIMS, not flags
    argv = [flag] if value is None else [flag, value]
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", *argv])
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ian ")
    assert error == f"ian: error: unrecognized arguments: {' '.join(argv)}"


def test_gradcheck_states_its_precision_first(capsys, monkeypatch):
    monkeypatch.setattr(ian.gradcheck, "check_tiny_model", lambda *args, **kwargs: {})
    assert run(["gradcheck"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == (
        "complex step h 1e-30 on a complex128 twin of the float64 model")
    assert captured.err == ""


# --- attention-viz ----------------------------------------------------


def test_attention_viz_files_consistent(tmp_path, capsys, monkeypatch):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    out_dir = tmp_path / "viz"
    keep_traces = []

    def recording(params, ids, table, lengths, keep_trace=True):
        keep_traces.append(keep_trace)
        return lstm_forward(params, ids, table, lengths, keep_trace)

    monkeypatch.setattr(ian.model, "lstm_forward", recording)
    rc = run(["attention-viz", "--checkpoint", ckpt,
              "--sentence", "The screen resolution is grainy.",
              "--target", "screen resolution", "--out-dir", str(out_dir)])
    assert rc == 0
    assert "predicted:" in capsys.readouterr().out
    assert keep_traces and not any(keep_traces)  # only the pass that keeps no trace
    svg = (out_dir / "attention.svg").read_text()
    txt = (out_dir / "attention.txt").read_text()
    assert (out_dir / "attention.html").read_text().count("<svg") == 1

    # the rendered file and the dump encode identical weight strings
    svg_pairs = re.findall(r"<title>(\S+) (\d\.\d{6})</title>", svg)
    txt_pairs = re.findall(r"^  (\S+)\t(\d\.\d{6})$", txt, flags=re.M)
    assert svg_pairs == txt_pairs and svg_pairs

    # each branch's weights sum to 1 at the printed precision
    total = sum(float(w) for _, w in txt_pairs)
    assert total == pytest.approx(2.0, abs=1e-4)  # two branches, 1 each


def test_attention_viz_span_flag(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    out_dir = tmp_path / "viz"
    rc = run(["attention-viz", "--checkpoint", ckpt,
              "--sentence", "the battery life is the size of a sandwich",
              "--target", "ignored", "--span", "1:3", "--out-dir", str(out_dir)])
    assert rc == 0
    txt = (out_dir / "attention.txt").read_text()
    assert "battery" in txt and "life" in txt


def test_attention_viz_span_over_unknown_word_drops_it(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    out_dir = tmp_path / "viz"
    rc = run(["attention-viz", "--checkpoint", ckpt,
              "--sentence", "the zqxv battery life is the size of a sandwich",
              "--target", "ignored", "--span", "2:4", "--out-dir", str(out_dir)])
    assert rc == 0
    assert "1 tokens unknown" in capsys.readouterr().err
    txt = (out_dir / "attention.txt").read_text()
    context, target = txt.split("target:\n")
    assert "zqxv" not in context and "battery" in context
    assert [line.split("\t")[0].strip() for line in target.splitlines()] == ["battery", "life"]


def test_attention_viz_target_not_found_suggests_span(tmp_path, capsys):
    ckpt, _ = trained_checkpoint(tmp_path, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line is the whole report
        rc = run(["attention-viz", "--checkpoint", ckpt,
                  "--sentence", "The screen is fine.", "--target", "trackpad",
                  "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--span" in err, err


def test_attention_viz_finds_by_token_a_target_find_term_misses(tmp_path, capsys):
    # the instance is looked up before a missing offset is judged: the
    # token search of build_instances finds what the text search did not
    ckpt = tiny_checkpoint(tmp_path)
    assert run(["attention-viz", "--checkpoint", ckpt, "--sentence", "the  food",
                "--target", "the food", "--out-dir", str(tmp_path / "viz")]) == 0
    assert (tmp_path / "viz" / "attention.txt").exists()


def test_attention_viz_names_a_found_target_outside_the_vocabulary(tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    params = ModelParams(Rng(0), Vocabulary(["the", "was"]), variant="ian", embed_dim=3,
                         hidden_dim=3)
    save_checkpoint(str(ckpt), params)
    viz = ["attention-viz", "--checkpoint", str(ckpt), "--sentence", "The food was great",
           "--target", "food", "--out-dir", str(tmp_path / "viz")]
    assert run(viz) == 1
    assert capsys.readouterr().err == (
        "error: no token of target 'food' is in the checkpoint vocabulary\n")
    assert run([*viz, "--span", "1:2"]) == 1
    assert capsys.readouterr().err == (
        "error: no token of span 1:2 is in the checkpoint vocabulary\n")
    assert not (tmp_path / "viz").exists()


def test_attention_viz_refuses_an_out_dir_that_is_a_file_before_the_forward_pass(
        tmp_path, capsys, monkeypatch):
    ckpt = tiny_checkpoint(tmp_path)
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    forwards = []
    monkeypatch.setattr(ian.model, "lstm_forward", lambda *args: forwards.append(args))
    assert run(["attention-viz", "--checkpoint", ckpt, "--sentence", "the food",
                "--target", "food", "--out-dir", str(a_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and forwards == []
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(a_file) in lines[0], lines


def test_attention_viz_rejects_variant_without_attention(tmp_path, capsys):
    out = tmp_path / "avg"
    assert run(["train", *TINY, "--variant", "lstm_avg",
                "--out-dir", str(out)]) == 0
    rc = run(["attention-viz", "--checkpoint", str(out / "model.npz"),
              "--sentence", "the battery life is fine",
              "--target", "battery life", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "no attention" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["majority", "lstm_avg", "td_lstm"])
@pytest.mark.parametrize("target", ["food", "trackpad"])
def test_attention_viz_names_the_variant_without_attention(tmp_path, capsys, variant,
                                                            target):
    # one check before the sentence is read: a target missing from it
    # gets the same line, not a hint to pass --span
    ckpt = tmp_path / "model.npz"
    save_checkpoint(str(ckpt), ModelParams(Rng(0), Vocabulary(["the", "food"]),
                                           variant=variant, embed_dim=3, hidden_dim=3))
    assert run(["attention-viz", "--checkpoint", str(ckpt), "--sentence", "the food",
                "--target", target, "--out-dir", str(tmp_path / "viz")]) == 1
    assert capsys.readouterr().err == (
        f"error: variant {variant!r} has no attention to visualize\n")
    assert not (tmp_path / "viz").exists()


# every failure a subcommand raises, as main() reports it: (argv, variant
# of the checkpoint at {ckpt} over the words "the" and "food", exit code,
# the one stderr line)
SENTENCE = ["--sentence", "the food was great"]
NO_CHECKPOINT = ["--checkpoint", "no_such_model.npz"]
NO_CHECKPOINT_LINE = ("cannot load checkpoint no_such_model.npz: "
                      "[Errno 2] No such file or directory: 'no_such_model.npz'")
FAILURES = [
    (["eval", *NO_CHECKPOINT], None, 1, NO_CHECKPOINT_LINE),
    (["predict", *NO_CHECKPOINT, "--input", "no_such_lines.txt"], None, 1, NO_CHECKPOINT_LINE),
    (["attention-viz", *NO_CHECKPOINT, *SENTENCE, "--target", "food"], None, 1,
     NO_CHECKPOINT_LINE),
    ([*SENTENCE, "--target", "food", "--span", "1-2"], "ian", 2,
     "--span expects START:END token positions"),
    ([*SENTENCE, "--target", "food", "--span", "1:5"], "ian", 2,
     "span 1:5 outside the 4-token sentence"),
    ([*SENTENCE, "--target", "food"], "lstm_avg", 1,
     "variant 'lstm_avg' has no attention to visualize"),
    ([*SENTENCE, "--target", "food", "--span", "2:4"], "ian", 1,
     "no token of span 2:4 is in the checkpoint vocabulary"),
    ([*SENTENCE, "--target", "great"], "ian", 1,
     "no token of target 'great' is in the checkpoint vocabulary"),
    ([*SENTENCE, "--target", "trackpad"], "ian", 1,
     "target 'trackpad' not found in the sentence; pass --span START:END (token positions)"),
]


@pytest.mark.parametrize("argv,variant,code,line", FAILURES)
def test_each_failure_is_one_exact_error_line(tmp_path, capsys, argv, variant, code, line):
    if variant is not None:
        ckpt = tmp_path / "model.npz"
        save_checkpoint(str(ckpt), ModelParams(Rng(0), Vocabulary(["the", "food"]),
                                               variant=variant, embed_dim=3, hidden_dim=3))
        argv = ["attention-viz", "--checkpoint", str(ckpt), *argv,
                "--out-dir", str(tmp_path / "viz")]
    assert run(argv) == code
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not (tmp_path / "viz").exists()


# --- viz unit checks --------------------------------------------------


def test_uniform_weights_render_uniform_boxes():
    tokens = ("evenly-lit", "row", "of", "boxes")
    weights = np.full(4, 0.25)
    svg = render_svg(tokens, weights, (), None, "neutral")
    opacities = re.findall(r'fill-opacity="([0-9.]+)"', svg)
    assert set(opacities) == {"1.000000"}


def test_weight_dump_omits_absent_branch():
    dump = weight_dump(("a", "b"), np.array([0.5, 0.5]), ("t",), None, "positive")
    assert "context:" in dump and "target:" not in dump
    assert dump.startswith("predicted\tpositive\n")
