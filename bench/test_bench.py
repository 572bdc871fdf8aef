"""Self-tests of the benchmark: generator determinism, tracer arithmetic and
the metric list's agreement with BENCHMARK.json, and the reference probe
against the code on the import path (a few seconds)."""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def _read_all(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_same_seed_writes_byte_identical_xml(tmp_path):
    corpus.write_corpus(str(tmp_path / "a"), 5, 12, 4)
    corpus.write_corpus(str(tmp_path / "b"), 5, 12, 4)
    corpus.write_corpus(str(tmp_path / "c"), 6, 12, 4)
    a, b, c = (_read_all(tmp_path / d) for d in "abc")
    assert sorted(a) == [corpus.TEST_FILE, corpus.TRAIN_FILE]
    assert a == b
    assert a != c


def test_predict_targets_occur_once_at_their_offsets():
    _, calls = corpus.predict_lines(3, 10)
    assert len(calls) == 10 and all(calls)
    for call in calls:
        for text, target, start, end in call:
            assert text.count(target) == 1
            assert text.find(target) == start and text[start:end] == target


def test_self_time_on_a_toy_call_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")          # 0 .. 10
    a = tracer.open("a")                # 1 .. 4
    tracer.close(tracer.open("a.x"))    # 2 .. 3
    tracer.close(a)
    tracer.close(tracer.open("b"))      # 5 .. 9
    tracer.close(root)
    own = tracer.self_times()
    by_name = {s.name: own[s.id] for s in tracer.spans}
    assert by_name == {"root": 3.0, "a": 2.0, "a.x": 1.0, "b": 4.0}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_install_wraps_every_reference_and_reports_absent_names():
    import ian.evaluate
    import ian.model
    import ian.training

    original = ian.model.forward
    tracer = Tracer()
    absent, restore = install(tracer, [
        ("model", "forward", "model.forward", None),
        ("model", "no_such_function", "model.none", None),
        ("training", "GradSet.zero", "training.zero", None),
    ])
    try:
        assert absent == ["model.no_such_function"]
        assert ian.training.forward is ian.model.forward is ian.evaluate.forward
        assert ian.model.forward is not original
    finally:
        restore()
    assert ian.model.forward is original and ian.training.forward is original


def test_metric_names_and_counts_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == list(run.E2E_METRICS)
    assert per_layer == list(layers.METRICS)
    assert len(e2e) <= 16 and len(per_layer) <= 128
    names = [n for n, _ in e2e] + [n for n, _, _ in per_layer]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_reference_probe_matches_the_code_on_the_import_path():
    import reference

    attempted, failed, mismatches = reference.check(include_training=True)
    assert (attempted, failed, mismatches) == (2 * reference.N_PROBE, 0, [])
