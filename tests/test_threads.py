"""The scope of a seeded run's bit-identity that README states: one numpy,
one BLAS build, one CPU kernel and one BLAS thread count give the same
bytes; another thread count gives the same history and parameters that
agree to rounding."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ian
from ian.data import DATA_ENV


def train_with_blas_threads(out_dir: Path, threads: int):
    """(history.txt, model.npz) bytes of a seeded `ian train` on the bundled
    restaurant corpus at the default dims, run in a new interpreter with
    OPENBLAS_NUM_THREADS set for that process alone."""
    env = {key: value for key, value in os.environ.items() if key != DATA_ENV}
    env.update(PYTHONPATH=str(Path(ian.__file__).parent.parent),
               OPENBLAS_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-m", "ian.cli", "train", "--epochs", "2", "--seed", "3",
                    "--out-dir", str(out_dir)], env=env, capture_output=True, check=True)
    return (out_dir / "history.txt").read_bytes(), out_dir / "model.npz"


def test_seeded_train_is_byte_identical_per_thread_count_and_close_across(tmp_path):
    runs = [train_with_blas_threads(tmp_path / f"run{k}", threads)
            for k, threads in enumerate((1, 1, 2, 2))]
    (history, one), (history_again, one_again), (history_two, two), (_, two_again) = runs
    assert history == history_again and one.read_bytes() == one_again.read_bytes()
    assert two.read_bytes() == two_again.read_bytes()
    # a BLAS that ignores the variable writes equal checkpoints, which pass too
    assert history_two == history
    with np.load(one) as at_one, np.load(two) as at_two:
        assert sorted(at_one.files) == sorted(at_two.files)
        for name in at_one.files:
            a, b = at_one[name], at_two[name]
            if name == "__meta__":
                assert a == b
                continue
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a)), name
