"""Shipping gate: one test per release criterion, each printing its own
[PASS]/[FAIL] line (run with -s or -rA to see them all).

Criteria 4 and 7 have parts gated behind environment variables because the
benchmark XML files are licensed and the pretrained vectors are large:

  SEMEVAL_DATA_DIR  directory holding the four official XML files
  IAN_VECTORS       path to a text file of 300-d pretrained word vectors
  IAN_RUN_STRETCH   set to any value to run the (slow) accuracy stretch runs
"""

import os
import re
import shutil
import time

import numpy as np
import pytest

from synth import synthetic_separable
from _oracles import oracle_probs

from ian import cli
from ian.data import DATA_ENV, REAL_FILENAMES, SPLITS, dataset_stats, fixture_path, load_category
from ian.embeddings import PAD_INDEX, Vocabulary, load_pretrained
from ian.evaluate import accuracy, evaluate_model
from ian.model import ModelParams, forward
from ian.numerics import Rng, softmax_stable
from ian.training import TrainConfig, train

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def criterion(num, ok, text):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num}: {text}"
    print(line)
    assert ok, line


# -- 1: gradient check ---------------------------------------------------


def test_criterion_1_gradcheck(capsys):
    start = time.perf_counter()
    rc = cli.main(["gradcheck"])  # 8 trainable layouts at dims 3/3 and 8/5, 4 ctx / 2 tgt tokens
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    groups_reported = out.count("max rel err")
    ok = rc == 0 and elapsed < 10.0 and groups_reported == 76
    criterion(1, ok,
              f"every parameter group of every trainable layout within 1e-4 of "
              f"complex-step derivatives at dims 3 and 8 ({groups_reported} group lines, "
              f"{elapsed:.1f}s < 10s)")


# -- 2: forward oracle -----------------------------------------------------


def test_criterion_2_forward_matches_oracle():
    rng = Rng(7321)
    vocab = Vocabulary([f"w{i}" for i in range(10)])
    worst = 0.0
    for case in range(100):
        de = dh = int(rng.integers(2, 5))
        params = ModelParams(Rng(case), vocab, variant="ian",
                             embed_dim=de, hidden_dim=dh)
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        ctx = rng.integers(1, 11, n)
        tgt = rng.integers(1, 11, m)
        probs, _ = forward(params, ctx, tgt)
        ref = np.array(oracle_probs(params, ctx, tgt))
        worst = max(worst, float(np.max(np.abs(probs - ref))))
    ok = worst <= 1e-10
    criterion(2, ok,
              f"forward pass equals the straight-line oracle on 100 random "
              f"instances (worst abs diff {worst:.2e} <= 1e-10)")


# -- 3: overfit sanity -----------------------------------------------------


def test_criterion_3_overfits_synthetic_set():
    vocab, instances = synthetic_separable(20)
    params = ModelParams(Rng(0), vocab, variant="ian",
                         embed_dim=16, hidden_dim=16)
    config = TrainConfig(epochs=200, learning_rate=2.0, momentum=0.9,
                         batch_size=20, clip_norm=1.0, dropout=0.0,
                         l2=0.0, seed=0)
    start = time.perf_counter()
    history = train(params, instances, config, Rng(config.seed))
    elapsed = time.perf_counter() - start
    hit = [h["epoch"] for h in history if h["train_acc"] == 1.0]
    ok = bool(hit) and elapsed < 30.0
    first = hit[0] if hit else "never"
    criterion(3, ok,
              f"100% train accuracy on the 20-instance separable set "
              f"(first at epoch {first} <= 200, {elapsed:.1f}s < 30s)")


# -- 4: statistics reproduction --------------------------------------------

FIXTURE_EXPECTED = {
    ("restaurant", "train"): ((11, 5, 4), (11, 4, 2, 1, 1, 1)),
    ("restaurant", "test"): ((2, 1, 3), (3, 1, 2, 0, 0, 0)),
    ("laptop", "train"): ((4, 5, 5), (4, 9, 0, 0, 0, 1)),
    ("laptop", "test"): ((2, 1, 2), (2, 3, 0, 0, 0, 0)),
}

REAL_EXPECTED = {
    ("restaurant", "train"): (
        (2164, 637, 807),
        (2720, 604, 172, 56, 29, 27),
        (0.7539, 0.1674, 0.0477, 0.0155, 0.0080, 0.0075),
    ),
    ("restaurant", "test"): (
        (728, 196, 196),
        (801, 215, 57, 25, 8, 14),
        (0.7152, 0.1920, 0.0509, 0.0223, 0.0071, 0.0125),
    ),
    ("laptop", "train"): (
        (994, 464, 870),
        (1473, 649, 141, 52, 8, 5),
        # 8/2328 rounds to 0.0034 at 4 decimals
        (0.6327, 0.2788, 0.0606, 0.0223, 0.0034, 0.0021),
    ),
    ("laptop", "test"): (
        (341, 169, 128),
        (351, 209, 45, 18, 9, 6),
        (0.5502, 0.3276, 0.0705, 0.0282, 0.0141, 0.0094),
    ),
}


def polarity_triple(stats):
    return (stats.polarity_counts["positive"],
            stats.polarity_counts["neutral"],
            stats.polarity_counts["negative"])


def test_criterion_4_statistics(capsys, monkeypatch):
    data_dir = os.environ.get(DATA_ENV)
    monkeypatch.delenv(DATA_ENV, raising=False)

    # fixture mode always runs, through the same loader the CLI uses
    mismatches = []
    for category in ("restaurant", "laptop"):
        *splits, _, _ = load_category(category)
        for split, instances in zip(SPLITS, splits):
            stats = dataset_stats(instances)
            want_pol, want_hist = FIXTURE_EXPECTED[(category, split)]
            if polarity_triple(stats) != want_pol:
                mismatches.append(f"{category} {split} polarity")
            if stats.length_hist != want_hist:
                mismatches.append(f"{category} {split} histogram")

    assert cli.main(["stats"]) == 0
    rendered = capsys.readouterr().out
    for needle in ("positive 11  neutral 5  negative 4", "1: 11/0.5500",
                   "2: 9/0.6429", ">5: 1/0.0500"):
        if needle not in rendered:
            mismatches.append(f"rendered stats missing {needle!r}")

    if data_dir:
        for category in ("restaurant", "laptop"):
            *splits, _, _ = load_category(category, data_dir=data_dir)
            for split, instances in zip(SPLITS, splits):
                stats = dataset_stats(instances)
                want_pol, want_hist, want_ratio = REAL_EXPECTED[(category, split)]
                if polarity_triple(stats) != want_pol:
                    mismatches.append(
                        f"real {category} {split} polarity "
                        f"{polarity_triple(stats)} != {want_pol}")
                if stats.length_hist != want_hist:
                    mismatches.append(
                        f"real {category} {split} histogram "
                        f"{stats.length_hist} != {want_hist}")
                got_ratio = tuple(round(c / stats.total, 4)
                                  for c in stats.length_hist)
                if got_ratio != want_ratio:
                    mismatches.append(
                        f"real {category} {split} ratios "
                        f"{got_ratio} != {want_ratio}")
        scope = "fixtures and the real benchmark files"
    else:
        scope = f"fixtures (set {DATA_ENV} to also check the real files)"

    ok = not mismatches
    criterion(4, ok,
              f"statistics reproduced exactly on {scope}"
              + ("" if ok else f" -- mismatches: {mismatches}"))


# -- 5: majority baseline arithmetic ----------------------------------------


def test_criterion_5_majority_accuracy_and_transposition_note():
    rest_gold = np.array([0] * 728 + [1] * 196 + [2] * 196)
    rest = accuracy(np.zeros(1120, dtype=int), rest_gold)
    laptop_gold = np.array([0] * 341 + [1] * 169 + [2] * 128)
    laptop = accuracy(np.zeros(638, dtype=int), laptop_gold)

    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    documented = "0.535" in readme and "transposed" in readme

    ok = (rest.accuracy == 728 / 1120
          and round(rest.accuracy, 3) == 0.650
          and laptop.accuracy == 341 / 638
          and round(laptop.accuracy, 3) == 0.534
          and documented)
    criterion(5, ok,
              f"majority accuracy from the label counts is "
              f"{rest.accuracy:.3f} restaurant / {laptop.accuracy:.3f} laptop "
              f"and the README documents the transposed published row"
              + ("" if documented else " [README note missing]"))


# -- 6: invariant suite ------------------------------------------------------


def test_criterion_6_invariants():
    failures = []
    vocab = Vocabulary([f"w{i}" for i in range(10)])

    # attention weights are distributions
    rng = Rng(66)
    worst_sum = 0.0
    for case in range(50):
        params = ModelParams(Rng(case), vocab, variant="ian",
                             embed_dim=4, hidden_dim=4)
        ctx = rng.integers(1, 11, int(rng.integers(2, 8)))
        tgt = rng.integers(1, 11, int(rng.integers(1, 4)))
        _, trace = forward(params, ctx, tgt)
        for key in ("ctx_weights", "tgt_weights"):
            worst_sum = max(worst_sum, abs(float(np.sum(trace[key])) - 1.0))
    if worst_sum > 1e-10:
        failures.append(f"attention sums off by {worst_sum:.2e}")

    # softmax shift invariance
    worst_shift = 0.0
    for case in range(50):
        v = Rng(case).uniform(-30.0, 30.0, 7)
        for shift in (-1e3, -17.5, 1e-3, 42.0, 1e3):
            diff = np.max(np.abs(softmax_stable(v + shift) - softmax_stable(v)))
            worst_shift = max(worst_shift, float(diff))
    if worst_shift > 1e-12:
        failures.append(f"softmax shift drift {worst_shift:.2e}")

    # trailing padding never changes the forward pass
    params = ModelParams(Rng(5), vocab, variant="ian", embed_dim=4, hidden_dim=4)
    for case in range(20):
        r = Rng(1000 + case)
        ctx = r.integers(1, 11, int(r.integers(2, 8)))
        tgt = r.integers(1, 11, int(r.integers(1, 4)))
        base, _ = forward(params, ctx, tgt)
        padded, _ = forward(params,
                            np.concatenate([ctx, [PAD_INDEX] * 3]),
                            np.concatenate([tgt, [PAD_INDEX]]))
        if not np.array_equal(base, padded):
            failures.append(f"padding changed output on case {case}")
            break

    # training is bit-identical under a fixed seed
    def one_run():
        vocab_s, instances = synthetic_separable(12)
        params_s = ModelParams(Rng(2), vocab_s, variant="ian",
                               embed_dim=6, hidden_dim=6)
        config = TrainConfig(epochs=4, learning_rate=0.1, batch_size=4,
                             dropout=0.5, seed=11)
        return train(params_s, instances, config, Rng(config.seed))

    hist_a, hist_b = one_run(), one_run()
    if hist_a != hist_b:
        failures.append("two identically seeded runs diverged")

    ok = not failures
    criterion(6, ok,
              "attention sums, softmax shift invariance, padding invariance, "
              "and seeded-run determinism all hold"
              + ("" if ok else f" -- {failures}"))


# -- 7: stretch accuracy (non-gating, env-gated) -----------------------------

STRETCH_TARGETS = {"restaurant": 0.786, "laptop": 0.721}
ABLATION_ORDER = ("no_interaction", "no_target", "target2content", "ian")


def stretch_env():
    return (os.environ.get(DATA_ENV),
            os.environ.get("IAN_VECTORS"),
            os.environ.get("IAN_RUN_STRETCH"))


def stretch_runs(data_dir, vectors, dim, epochs):
    """Criterion 7's runs: per category, the best-of-5 test accuracy of `ian`
    and the seeds whose ablation variants keep their order. Each (variant,
    seed) trains once, so best-of-5 reads the ablation loop's `ian` runs.
    Returns (ok, report lines)."""
    seeds = (0, 1, 2, 3, 4)
    report = []
    ok = True
    for category in ("restaurant", "laptop"):
        train_instances, test_instances, vocab, _ = load_category(category, data_dir=data_dir)
        table, hits, misses = load_pretrained(vectors, vocab, dim, Rng(0))
        print(f"{category}: {hits} pretrained hits, {misses} misses")

        def run(variant, seed):
            params = ModelParams(Rng(seed), vocab, variant=variant,
                                 embed_dim=dim, hidden_dim=dim,
                                 embeddings=table.copy())
            config = TrainConfig(seed=seed, epochs=epochs)
            train(params, train_instances, config, Rng(seed))
            return evaluate_model(params, test_instances).accuracy

        accs = {seed: [run(variant, seed) for variant in ABLATION_ORDER]
                for seed in seeds}
        best = max(accs[seed][ABLATION_ORDER.index("ian")] for seed in seeds)
        gap = abs(best - STRETCH_TARGETS[category])
        report.append(f"{category} best-of-5 {best:.3f} (gap {gap:.3f})")
        if gap > 0.03:
            ok = False

        ordered = sum(all(a <= b + 1e-12 for a, b in zip(row, row[1:]))
                      for row in accs.values())
        report.append(f"{category} ablation order held in {ordered}/5 seeds")
        if ordered < 4:
            ok = False
    return ok, report


@pytest.mark.skipif(not all(stretch_env()),
                    reason="stretch runs need SEMEVAL_DATA_DIR, IAN_VECTORS "
                           "and IAN_RUN_STRETCH")
def test_criterion_7_stretch_accuracy():
    data_dir, vectors, _ = stretch_env()
    ok, report = stretch_runs(data_dir, vectors, 300, TrainConfig.epochs)
    criterion(7, ok, "; ".join(report))


def test_stretch_runs_reach_their_report_on_the_fixtures(tmp_path, capsys):
    # criterion 7's path from a vectors file to its report, on the bundled
    # fixtures under the official file names and one epoch at 8 dims; the
    # accuracies of so short a run mean nothing, so only the report is read
    for (category, split), names in REAL_FILENAMES.items():
        shutil.copy(fixture_path(category, split), tmp_path / names[0])
    vectors = tmp_path / "vectors.txt"
    rows = Rng(1).uniform(-0.5, 0.5, (6, 8))
    vectors.write_text("".join(
        word + "".join(f" {v:.4f}" for v in row) + "\n"
        for word, row in zip(("the", "food", "battery", "screen", "was", "is"), rows)),
        encoding="utf-8")
    _, report = stretch_runs(str(tmp_path), str(vectors), 8, 1)
    assert [line.split(" ", 2)[:2] for line in report] == [
        ["restaurant", "best-of-5"], ["restaurant", "ablation"],
        ["laptop", "best-of-5"], ["laptop", "ablation"]]
    printed = capsys.readouterr().out
    assert re.search(r"^restaurant: [1-9]\d* pretrained hits", printed, re.M), printed
    assert re.search(r"^laptop: [1-9]\d* pretrained hits", printed, re.M), printed
