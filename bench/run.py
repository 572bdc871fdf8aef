"""Benchmark of the ``ian`` command: train, eval and predict workloads.

    python3 bench/run.py --workload train|eval|predict --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). Inputs are generated from --seed into bench/_work/ and removed
at exit. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 runs the real command as a fresh process per call, the way a
user does (``PYTHONPATH=src python -m ian.cli ...``), for at least
--seconds of command wall time, and reports the end-to-end metrics.
--trace 1 runs one cycle of the same calls in process, once plain and once
with every public function of the package wrapped by the tracer, and
reports the per-layer metrics. Both check every output they produce.

All workloads are closed loops: one client, one process at a time. Never
run two benchmark runs at once on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import corpus
import layers
import reference
from tracer import Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

EMBED_DIM = HIDDEN_DIM = 300
SETUP_REPS = 15
IMPORT_REPS = 3
# a run that has measured this long stops after the current call, so that
# even a much slower program ends within the 180 s a run may take
MAX_RUN_S = 120.0

# Why each workload exists:
# - train: `ian train --epochs 1 --batch-size 32`, default dropout and L2.
#   The cost of reproducing the paper sits here; it is the only workload
#   that runs the backward pass, the L2 term and the optimizer.
# - eval: `ian eval` of a 300/300 checkpoint, forward only. Backward, L2
#   and optimizer changes are predicted to move nothing here; forward
#   batching, length grouping and context reuse show here.
# - predict: back-to-back `ian predict` calls on small line files. Per-call
#   fixed costs (import, checkpoint load) dominate, and a batching change
#   that slows single-instance latency shows here.
TRAIN_SENTENCES, TRAIN_TEST_SENTENCES = 40, 12
EVAL_SENTENCES = 150
PREDICT_CALLS_PER_CYCLE = 25
PREDICT_MIN_CALLS = 100  # p90 then has ten calls beyond it

E2E_METRICS = (
    ("ops_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

_ACCURACY = re.compile(r"accuracy (\d+)/(\d+)")
_CONFUSION_ROW = re.compile(r"^gold\s+(\w+)\s+(\d+)\s+(\d+)\s+(\d+)", re.M)


class Call:
    """One ``ian`` invocation: its arguments and the operations it performs
    (training instances, eval instances or predict lines)."""

    def __init__(self, argv, ops, out=None, expected=None):
        self.argv = [str(a) for a in argv]
        self.ops = ops
        self.out = out
        self.expected = expected


class Workload:
    """Inputs, calls and output checks of one workload.

    ``cycle`` is the list of calls the workload repeats; ``check`` returns
    the number of failed operations of one finished call.
    """

    min_calls = 3
    setup_code: str  # Python run in a fresh process: only the set-up calls
    include_training_probe = False

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.cycle: list[Call] = []

    def setup_argv(self) -> list:
        raise NotImplementedError

    def check(self, call: Call, returncode: int, stdout: str) -> int:
        raise NotImplementedError


class Train(Workload):
    setup_code = (
        "import sys\n"
        "import ian.cli\n"
        "from ian.data import load_reviews, build_vocab, build_instances\n"
        "from ian.model import ModelParams\n"
        "from ian.numerics import Rng\n"
        "tr, _ = load_reviews('restaurant', 'train', sys.argv[1])\n"
        "te, _ = load_reviews('restaurant', 'test', sys.argv[1])\n"
        "v = build_vocab([tr, te])\n"
        "build_instances(tr, v)\n"
        "build_instances(te, v)\n"
        "ModelParams(Rng(int(sys.argv[2])), v, variant='ian',"
        f" embed_dim={EMBED_DIM}, hidden_dim={HIDDEN_DIM})\n"
    )
    include_training_probe = True

    def __init__(self, work, seed):
        super().__init__(work, seed)
        from ian.data import build_instances, build_vocab, load_reviews

        self.data = work / "data"
        corpus.write_corpus(str(self.data), seed, TRAIN_SENTENCES, TRAIN_TEST_SENTENCES)
        train_reviews, _ = load_reviews("restaurant", "train", str(self.data))
        test_reviews, _ = load_reviews("restaurant", "test", str(self.data))
        vocab = build_vocab([train_reviews, test_reviews])
        n_train = len(build_instances(train_reviews, vocab)[0])
        self.test = build_instances(test_reviews, vocab)[0]
        self.out = work / "train_out"
        self.cycle = [Call(
            ["train", "--data-dir", self.data, "--category", "restaurant",
             "--variant", "ian", "--embed-dim", EMBED_DIM, "--hidden-dim", HIDDEN_DIM,
             "--epochs", 1, "--batch-size", 32, "--seed", seed, "--out-dir", self.out],
            n_train)]
        self.first_history = None

    def setup_argv(self):
        return [self.data, self.seed]

    def check(self, call, returncode, stdout):
        from ian.evaluate import evaluate_model
        from ian.model import load_checkpoint

        if returncode != 0:
            return call.ops
        history = (self.out / "history.txt").read_text(encoding="utf-8")
        rows = [line.split("\t") for line in history.splitlines()[1:]]
        if not rows or not all(np.isfinite(float(r[1])) for r in rows):
            return call.ops
        if self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            print("train: a rerun with the same seed wrote another history",
                  file=sys.stderr)
            return call.ops
        # the accuracy the command printed must equal an in-process
        # evaluation of the checkpoint it wrote
        printed = _ACCURACY.findall(stdout)
        params, _ = load_checkpoint(str(self.out / "model.npz"))
        report = evaluate_model(params, self.test)
        if not printed or tuple(map(int, printed[-1])) != (report.correct, report.total):
            print(f"train: printed accuracy {printed} != in-process "
                  f"{report.correct}/{report.total}", file=sys.stderr)
            return call.ops
        return 0


class Eval(Workload):
    setup_code = (
        "import sys\n"
        "import ian.cli\n"
        "from ian.data import load_reviews, build_instances\n"
        "from ian.model import load_checkpoint\n"
        "p, _ = load_checkpoint(sys.argv[1])\n"
        "r, _ = load_reviews('restaurant', 'test', sys.argv[2])\n"
        "build_instances(r, p.vocab, drop_unknown=True)\n"
    )

    def __init__(self, work, seed):
        super().__init__(work, seed)
        from ian.data import build_instances, load_reviews
        from ian.evaluate import evaluate_model
        from ian.model import load_checkpoint

        self.data = work / "data"
        words, _, _ = corpus.write_corpus(str(self.data), seed, 0, EVAL_SENTENCES)
        self.ckpt = work / "model.npz"
        corpus.write_checkpoint(str(self.ckpt), words, seed)
        params, _ = load_checkpoint(str(self.ckpt))
        reviews, _ = load_reviews("restaurant", "test", str(self.data))
        instances = build_instances(reviews, params.vocab, drop_unknown=True)[0]
        self.expected = evaluate_model(params, instances)
        self.report = work / "report.tsv"
        self.cycle = [Call(
            ["eval", "--checkpoint", self.ckpt, "--data-dir", self.data,
             "--category", "restaurant", "--split", "test", "--out", self.report],
            len(instances))]

    def setup_argv(self):
        return [self.ckpt, self.data]

    def check(self, call, returncode, stdout):
        if returncode != 0:
            return call.ops
        fields = self.report.read_text(encoding="utf-8").splitlines()[1].split("\t")
        confusion = np.zeros((3, 3), dtype=np.int64)
        rows = _CONFUSION_ROW.findall(stdout)
        for i, row in enumerate(rows[:3]):
            confusion[i] = [int(x) for x in row[1:]]
        exp = self.expected
        if (int(fields[2]), int(fields[3])) != (exp.correct, exp.total) or len(rows) != 3:
            return call.ops
        # each instance labelled differently moves two confusion cells
        return int(np.abs(confusion - exp.confusion).sum()) // 2


class Predict(Workload):
    setup_code = (
        "import sys\n"
        "import ian.cli\n"
        "from ian.model import load_checkpoint\n"
        "load_checkpoint(sys.argv[1])\n"
    )
    min_calls = PREDICT_MIN_CALLS

    def __init__(self, work, seed):
        super().__init__(work, seed)
        from ian.data import AspectTerm, RawReview, build_instances
        from ian.evaluate import predict_all
        from ian.model import LABELS, load_checkpoint

        words, calls = corpus.predict_lines(seed, PREDICT_CALLS_PER_CYCLE)
        self.ckpt = work / "model.npz"
        corpus.write_checkpoint(str(self.ckpt), words, seed)
        paths = corpus.write_predict_files(str(work / "lines"), calls)
        params, _ = load_checkpoint(str(self.ckpt))
        for i, (path, lines) in enumerate(zip(paths, calls)):
            # the reference label of each line: evaluate.predict_all on the
            # instance built from the generator's own character offsets
            reviews = [RawReview(text, [AspectTerm(t, s, e, None)])
                       for text, t, s, e in lines]
            instances = build_instances(reviews, params.vocab, drop_unknown=True)[0]
            if len(instances) != len(lines):
                raise RuntimeError("generated predict line could not be built")
            labels = [LABELS[k] for k in predict_all(params, instances)]
            out = work / "lines" / f"out{i:03d}.txt"
            self.cycle.append(Call(
                ["predict", "--checkpoint", self.ckpt, "--input", path, "--output", out],
                len(lines), out=out, expected=labels))

    def setup_argv(self):
        return [self.ckpt]

    def check(self, call, returncode, stdout):
        got = call.out.read_text(encoding="utf-8").splitlines() if call.out.exists() else []
        failed = sum(1 for i, label in enumerate(call.expected)
                     if i >= len(got) or got[i] != label)
        call.out.unlink(missing_ok=True)
        if returncode != 0 and failed == 0:
            return call.ops
        return failed


WORKLOADS = {"train": Train, "eval": Eval, "predict": Predict}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


def run_child(argv, stdout_path: Path):
    """Run a fresh Python process from the repository root; returns
    (wall seconds, exit code, peak RSS in MB)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        print(f"exit {proc.returncode}: {tail[-1] if tail else ''}", file=sys.stderr)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(wl: Workload) -> float:
    """Wall time of one fresh process making only the set-up calls."""
    wall, rc, _ = run_child(["-c", wl.setup_code, *map(str, wl.setup_argv())],
                            wl.work / "setup.out")
    if rc != 0:
        raise RuntimeError(f"set-up process exited with {rc}")
    return wall


def measure_import_ms() -> float:
    """Cumulative import time of ian.cli as ``python -X importtime`` reports it."""
    values = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ian.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "ian.cli":
                values.append(int(parts[1]) / 1000.0)
    return statistics.median(values)


def run_untraced(wl: Workload, seconds: float):
    """(attempted, failed, metrics) of the end-to-end run; ok_frac is left
    to the caller, which adds the reference probe's operations."""
    walls, rss, attempted, failed = [], [], 0, 0
    setup_walls, cycle_rates = [], []
    log = wl.work / "call.out"
    run_child(["-c", "import ian.cli"], log)  # compile bytecode, fill page cache
    i = 0
    while ((sum(walls) < seconds or i < wl.min_calls)
           and sum(walls) + sum(setup_walls) < MAX_RUN_S):
        call = wl.cycle[i % len(wl.cycle)]
        wall, rc, peak = run_child(["-m", "ian.cli", *call.argv], log)
        walls.append(wall)
        rss.append(peak)
        attempted += call.ops
        failed += wl.check(call, rc, log.read_text(encoding="utf-8", errors="replace"))
        i += 1
        if i % len(wl.cycle) == 0:
            cycle = walls[-len(wl.cycle):]
            cycle_rates.append(sum(c.ops for c in wl.cycle) / sum(cycle))
        # set-up processes are spread over the run in step with its progress,
        # so that setup_s sees the machine at the same moments as the calls
        progress = min(sum(walls) / seconds, i / wl.min_calls, 1.0)
        while len(setup_walls) < math.ceil(SETUP_REPS * progress):
            setup_walls.append(measure_setup(wl))
    while len(setup_walls) < SETUP_REPS:  # a run cut short by MAX_RUN_S
        setup_walls.append(measure_setup(wl))
    metrics = {
        # a run cut short by MAX_RUN_S may not finish a predict cycle
        "ops_per_s": statistics.median(cycle_rates) if cycle_rates else attempted / sum(walls),
        "call_p50_ms": 1e3 * np.quantile(walls, 0.5),
        "call_p90_ms": 1e3 * np.quantile(walls, 0.9),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": max(rss),
    }
    print(f"calls {len(walls)}, cycles {len(cycle_rates)}, "
          f"command wall {sum(walls):.2f} s, set-up processes {len(setup_walls)}")
    return attempted, failed, metrics


def _in_process_cycle(wl: Workload, tracer=None):
    """One cycle of the workload's calls through ``ian.cli.main`` in this
    process; returns (wall seconds, [(call, exit code, stdout)], root span)."""
    from ian import cli

    root = tracer.open("run") if tracer else None
    start = time.perf_counter()
    results = []
    for call in wl.cycle:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(call.argv)
            except Exception:  # a crash fails the call, not the benchmark
                print(traceback.format_exc(), file=sys.__stderr__)
                rc = 1
        results.append((call, rc, buf.getvalue()))
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return wall, results, root


def run_traced(wl: Workload):
    import_ms = measure_import_ms()
    # the first cycle in a process also pays for first-touch allocation and
    # BLAS thread start-up; it warms up and is not compared
    _, results, _ = _in_process_cycle(wl)
    failed = sum(wl.check(*r) for r in results)
    tracer = Tracer()
    absent, restore = install(tracer, layers.TARGETS)
    try:
        _, results, root = _in_process_cycle(wl, tracer)
    finally:
        restore()
    # checked after restore, so the checks' own calls into the package stay
    # out of the per-layer figures
    failed += sum(wl.check(*r) for r in results)
    plain_wall, results, _ = _in_process_cycle(wl)
    failed += sum(wl.check(*r) for r in results)
    tracer.write(str(WORK / f"trace-{type(wl).__name__.lower()}.jsonl"))
    metrics = layers.layer_metrics(tracer, root, plain_wall, import_ms)
    if absent:
        print("absent: " + " ".join(absent))
    return 3 * sum(c.ops for c in wl.cycle), failed, metrics


def environment() -> dict:
    """What the numbers depend on besides the code; BLAS threads are left
    at the default users get, and recorded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "ian" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'ian'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("env: " + json.dumps(environment()))
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            attempted, failed, metrics = run_traced(wl)
        else:
            attempted, failed, metrics = run_untraced(wl, args.seconds)
        ref_attempted, ref_failed, mismatches = reference.check(wl.include_training_probe)
        for line in mismatches:
            print(f"reference: {line}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and not mismatches
    attempted += ref_attempted
    failed += ref_failed
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
        metrics = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in E2E_METRICS}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
